package netsync

import (
	"fmt"
	"sort"

	"egwalker"
)

// Version-summary wire encoding (docs/FORMAT.md):
//
//	uvarint agentCount
//	agentCount × (
//	    uvarint nameLen, nameLen bytes of agent name,
//	    uvarint rangeCount,                       // >= 1
//	    rangeCount × ( uvarint gap, uvarint len ) // len >= 1
//	)
//
// Agents are sorted by name, ranges ascending. Each range's start is
// delta-coded as the gap from the previous range's end (from 0 for the
// first), and its extent as a length — editing histories are runs of
// small numbers, so a full replica's summary is a few bytes per agent
// regardless of history length. The gap must be >= 1 for every range
// after the first (abutting ranges would not be canonical), which is
// what makes decode→encode→decode a fixed point.

// MarshalVersionSummary encodes a summary for hello and anti-entropy
// frames. The encoding is deterministic: equal summaries encode to
// equal bytes.
func MarshalVersionSummary(s egwalker.VersionSummary) []byte {
	agents := make([]string, 0, len(s))
	for agent := range s {
		agents = append(agents, agent)
	}
	sort.Strings(agents)
	var buf []byte
	buf = putUvarint(buf, uint64(len(agents)))
	for _, agent := range agents {
		buf = putUvarint(buf, uint64(len(agent)))
		buf = append(buf, agent...)
		ranges := s[agent]
		buf = putUvarint(buf, uint64(len(ranges)))
		prevEnd := 0
		for _, r := range ranges {
			buf = putUvarint(buf, uint64(r.Start-prevEnd))
			buf = putUvarint(buf, uint64(r.End-r.Start))
			prevEnd = r.End
		}
	}
	return buf
}

// canonUvarint reads a minimally-encoded uvarint. The summary encoding
// is canonical down to the byte level (equal summaries ⇔ equal bytes),
// so padded varints like 0x80 0x00 — which the lenient reader would
// accept as 0 — are rejected: the final byte of a multi-byte varint
// holds its most significant bits, so a zero there means a shorter
// encoding existed.
func canonUvarint(r *byteReader) (uint64, error) {
	start := r.off
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if r.off-start > 1 && r.buf[r.off-1] == 0 {
		return 0, fmt.Errorf("netsync: non-minimal varint in summary")
	}
	return v, nil
}

// UnmarshalVersionSummary decodes a summary, rejecting anything
// non-canonical (overlapping, abutting, or empty ranges; duplicate or
// unsorted agents; padded varints; trailing bytes) or outside the
// hostile-input bounds (agent names over maxAgentName, seqs over
// maxSeq). The result always passes egwalker's Validate, and accepted
// bytes re-encode to themselves: equal summaries ⇔ equal frames.
func UnmarshalVersionSummary(data []byte) (egwalker.VersionSummary, error) {
	r := &byteReader{buf: data}
	agentCount, err := canonUvarint(r)
	if err != nil {
		return nil, err
	}
	if agentCount > uint64(len(data)) {
		// Every agent consumes at least three payload bytes, so a hostile
		// count fails here before any allocation sized by it.
		return nil, fmt.Errorf("netsync: summary larger than payload")
	}
	s := make(egwalker.VersionSummary, min(agentCount, 1024))
	prevAgent := ""
	for i := uint64(0); i < agentCount; i++ {
		nameLen, err := canonUvarint(r)
		if err != nil {
			return nil, err
		}
		if nameLen > maxAgentName {
			return nil, fmt.Errorf("netsync: summary agent name length %d over cap %d", nameLen, maxAgentName)
		}
		name, err := r.bytes(int(nameLen))
		if err != nil {
			return nil, err
		}
		agent := string(name)
		// Strictly increasing agent names: rejects both duplicates and
		// out-of-order encodings (the encoder sorts, so accepting either
		// would break byte-level canonicality).
		if i > 0 && agent <= prevAgent {
			return nil, fmt.Errorf("netsync: summary agents out of order (%q after %q)", agent, prevAgent)
		}
		prevAgent = agent
		rangeCount, err := canonUvarint(r)
		if err != nil {
			return nil, err
		}
		if rangeCount == 0 {
			return nil, fmt.Errorf("netsync: summary agent %q has no ranges", agent)
		}
		if rangeCount > uint64(len(data)) {
			return nil, fmt.Errorf("netsync: summary larger than payload")
		}
		ranges := make([]egwalker.SeqRange, 0, min(rangeCount, 1024))
		prevEnd := uint64(0)
		for j := uint64(0); j < rangeCount; j++ {
			gap, err := canonUvarint(r)
			if err != nil {
				return nil, err
			}
			if j > 0 && gap == 0 {
				return nil, fmt.Errorf("netsync: abutting ranges for agent %q in summary", agent)
			}
			length, err := canonUvarint(r)
			if err != nil {
				return nil, err
			}
			if length == 0 {
				return nil, fmt.Errorf("netsync: empty range for agent %q in summary", agent)
			}
			start := prevEnd + gap
			end := start + length
			if start > maxSeq || end > maxSeq {
				return nil, fmt.Errorf("netsync: summary seq %d over cap %d", end, uint64(maxSeq))
			}
			ranges = append(ranges, egwalker.SeqRange{Start: int(start), End: int(end)})
			prevEnd = end
		}
		s[agent] = ranges
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("netsync: %d trailing bytes after version summary", len(data)-r.off)
	}
	return s, nil
}
