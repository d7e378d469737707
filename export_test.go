package egwalker

import (
	"io"

	"egwalker/internal/encoding"
)

// SaveMode is one whole-document format the tests round-trip a Doc
// through: Save with Options, or — when EGW1 is set — the legacy
// "EGW1" writer in internal/encoding that produced files older than
// the columnar format. Only the pruned save still writes EGW1, but
// Load must keep reading every variant.
type SaveMode struct {
	Options SaveOptions
	EGW1    bool
}

// SaveModes covers the columnar default and its options, the pruned
// save, and the legacy writer with and without its options.
var SaveModes = []SaveMode{
	{},
	{Options: SaveOptions{CacheFinalDoc: true}},
	{Options: SaveOptions{Compress: true}},
	{Options: SaveOptions{CacheFinalDoc: true, Compress: true}},
	{Options: SaveOptions{OmitDeletedContent: true, CacheFinalDoc: true}},
	{EGW1: true},
	{EGW1: true, Options: SaveOptions{CacheFinalDoc: true}},
	{EGW1: true, Options: SaveOptions{Compress: true}},
	{EGW1: true, Options: SaveOptions{CacheFinalDoc: true, Compress: true}},
}

// Save writes d in this mode.
func (m SaveMode) Save(d *Doc, w io.Writer) error {
	if !m.EGW1 {
		return d.Save(w, m.Options)
	}
	return encoding.Encode(w, d.log, encoding.Options{
		CacheFinalDoc: m.Options.CacheFinalDoc,
		Compress:      m.Options.Compress,
	}, d.text.String(), nil)
}
