package egwalker

import (
	"fmt"

	"egwalker/internal/colenc"
	"egwalker/internal/oplog"
)

// This file bridges the public event types to internal/colenc, the
// compact columnar batch codec (docs/FORMAT.md). Two encodings of an
// event batch exist:
//
//   - the columnar codec (MarshalEventsCompact) — run-length columns,
//     typically 2-10x smaller on real editing histories, and the only
//     one any writer emits;
//   - the legacy per-event codec (MarshalEvents/UnmarshalEvents in
//     delta.go) — what WAL segments and delta files written before the
//     columnar codec hold.
//
// The two are distinguished by the columnar magic, so any reader that
// may see older bytes calls UnmarshalEventsAuto.

// MarshalEventsCompact encodes a batch of events in the compact
// columnar format. The batch must be in causal order (parents precede
// children within the batch), as Doc.Events and Doc.EventsSince
// produce. Decode with UnmarshalEventsAuto.
func MarshalEventsCompact(events []Event) ([]byte, error) {
	return colenc.Encode(eventsToWire(events), colenc.Options{})
}

// maxAutoDecodeEvents caps the event count UnmarshalEventsAuto accepts
// from a columnar payload. Run-length encoding means a small payload
// can describe many events (a held backspace over a huge document is a
// handful of bytes), so the bound cannot be payload-proportional; this
// value covers every full-scale trace with an order of magnitude to
// spare while keeping a hostile frame's decode allocation in the same
// ballpark as the legacy codec's worst case.
const maxAutoDecodeEvents = 1 << 24

// UnmarshalEventsAuto decodes an event batch in either encoding,
// sniffing the columnar magic. Use it wherever older bytes may turn
// up: WAL segments and delta files persisted before every writer became
// columnar, and the events frames that stream them. It accepts any batch
// MarshalEventsCompact produces, up to maxAutoDecodeEvents.
func UnmarshalEventsAuto(data []byte) ([]Event, error) {
	if colenc.Sniff(data) {
		dec, err := colenc.DecodeLimit(data, maxAutoDecodeEvents)
		if err != nil {
			return nil, err
		}
		return eventsFromWire(dec.Events), nil
	}
	return UnmarshalEvents(data)
}

// eventsToWire converts public events to colenc's mirror type (the
// internal package cannot import the root package's types).
func eventsToWire(events []Event) []colenc.Event {
	out := make([]colenc.Event, len(events))
	for i, ev := range events {
		var ps []colenc.ID
		if len(ev.Parents) > 0 {
			ps = make([]colenc.ID, len(ev.Parents))
			for j, p := range ev.Parents {
				ps[j] = colenc.ID{Agent: p.Agent, Seq: p.Seq}
			}
		}
		out[i] = colenc.Event{
			ID:      colenc.ID{Agent: ev.ID.Agent, Seq: ev.ID.Seq},
			Parents: ps,
			Insert:  ev.Insert,
			Pos:     ev.Pos,
			Content: ev.Content,
		}
	}
	return out
}

func eventsFromWire(evs []colenc.Event) []Event {
	out := make([]Event, len(evs))
	for i, ev := range evs {
		var ps []EventID
		if len(ev.Parents) > 0 {
			ps = make([]EventID, len(ev.Parents))
			for j, p := range ev.Parents {
				ps[j] = EventID{Agent: p.Agent, Seq: p.Seq}
			}
		}
		out[i] = Event{
			ID:      EventID{Agent: ev.ID.Agent, Seq: ev.ID.Seq},
			Parents: ps,
			Insert:  ev.Insert,
			Pos:     ev.Pos,
			Content: ev.Content,
		}
	}
	return out
}

// logFromWire rebuilds an operation log from a full-document columnar
// batch (colenc.BuildLog with this package's error prefix).
func logFromWire(evs []colenc.Event) (*oplog.Log, error) {
	l, err := colenc.BuildLog(evs)
	if err != nil {
		return nil, fmt.Errorf("egwalker: load: %w", err)
	}
	return l, nil
}
