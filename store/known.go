package store

import (
	"sort"

	"egwalker"
)

// idSet tracks which event IDs a journal-only DocStore holds, as
// per-agent sorted runs of sequence numbers. Editing histories are
// run-shaped (one agent emits seq 0,1,2,…), so the set stays tiny —
// typically one run per agent — no matter how many events the journal
// covers. This is what lets the store validate an uploaded batch's
// causal dependencies without materialising the document.
type idSet struct {
	runs map[string][]seqRun // per agent, sorted by start, non-overlapping
}

type seqRun struct{ start, end int } // [start, end)

func newIDSet() *idSet { return &idSet{runs: make(map[string][]seqRun)} }

// addRun inserts [seq, seq+n) for agent, merging with adjacent or
// overlapping runs.
func (s *idSet) addRun(agent string, seq, n int) {
	if n <= 0 {
		return
	}
	runs := s.runs[agent]
	nr := seqRun{start: seq, end: seq + n}
	// First run starting after the new run's start.
	i := sort.Search(len(runs), func(i int) bool { return runs[i].start > nr.start })
	// Merge backward into a predecessor that reaches nr.start.
	if i > 0 && runs[i-1].end >= nr.start {
		i--
		if runs[i].start < nr.start {
			nr.start = runs[i].start
		}
		if runs[i].end > nr.end {
			nr.end = runs[i].end
		}
	}
	// Swallow successors the new run reaches.
	j := i
	for j < len(runs) && runs[j].start <= nr.end {
		if runs[j].end > nr.end {
			nr.end = runs[j].end
		}
		j++
	}
	runs = append(runs[:i], append([]seqRun{nr}, runs[j:]...)...)
	s.runs[agent] = runs
}

// countNew reports how many IDs in [seq, seq+n) for agent are NOT yet
// in the set — the fresh-event count of a possibly-duplicated run.
func (s *idSet) countNew(agent string, seq, n int) int {
	if n <= 0 {
		return 0
	}
	covered := 0
	end := seq + n
	runs := s.runs[agent]
	i := sort.Search(len(runs), func(i int) bool { return runs[i].end > seq })
	for ; i < len(runs) && runs[i].start < end; i++ {
		lo, hi := runs[i].start, runs[i].end
		if lo < seq {
			lo = seq
		}
		if hi > end {
			hi = end
		}
		covered += hi - lo
	}
	return n - covered
}

// has reports whether the set contains id.
func (s *idSet) has(id egwalker.EventID) bool {
	runs := s.runs[id.Agent]
	i := sort.Search(len(runs), func(i int) bool { return runs[i].end > id.Seq })
	return i < len(runs) && runs[i].start <= id.Seq
}

// addEvents adds the IDs of decoded events.
func (s *idSet) addEvents(events []egwalker.Event) {
	for _, ev := range events {
		s.addRun(ev.ID.Agent, ev.ID.Seq, 1)
	}
}

// summary exports the set as a version summary — the run structures
// are identical, so this is a per-agent copy, O(runs).
func (s *idSet) summary() egwalker.VersionSummary {
	sum := make(egwalker.VersionSummary, len(s.runs))
	for agent, runs := range s.runs {
		ranges := make([]egwalker.SeqRange, len(runs))
		for i, r := range runs {
			ranges[i] = egwalker.SeqRange{Start: r.start, End: r.end}
		}
		sum[agent] = ranges
	}
	return sum
}

// coveredBy reports whether every ID in the set is covered by the
// summary — when true, a diff against the summary is empty.
func (s *idSet) coveredBy(sum egwalker.VersionSummary) bool {
	for agent, runs := range s.runs {
		ranges := sum[agent]
		for _, run := range runs {
			i := sort.Search(len(ranges), func(i int) bool { return ranges[i].End > run.start })
			if i == len(ranges) || ranges[i].Start > run.start || ranges[i].End < run.end {
				return false
			}
		}
	}
	return true
}

// numEvents counts the IDs in the set (the journal's event total).
func (s *idSet) numEvents() int {
	n := 0
	for _, runs := range s.runs {
		for _, r := range runs {
			n += r.end - r.start
		}
	}
	return n
}
