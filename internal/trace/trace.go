// Package trace defines the behavioural event records the design flow
// consumes — conditional branch outcomes and load values — together with
// compact binary and human-readable text encodings, and the profiling
// passes that turn event streams into Markov models (standing in for the
// ATOM instrumentation used in the paper, §5).
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/markov"
)

// BranchEvent is one dynamic conditional branch: its static address and
// its resolved direction.
type BranchEvent struct {
	PC    uint64
	Taken bool
}

// LoadEvent is one dynamic load: its static address and the value loaded.
type LoadEvent struct {
	PC    uint64
	Value uint64
}

// Outcomes extracts the global direction stream from a branch trace.
func Outcomes(events []BranchEvent) *bitseq.Bits {
	b := &bitseq.Bits{}
	for _, e := range events {
		b.Append(e.Taken)
	}
	return b
}

// BranchProfile summarizes per-static-branch behaviour.
type BranchProfile struct {
	PC    uint64
	Count int
	Taken int
}

// TakenRate returns the fraction of executions that were taken.
func (p BranchProfile) TakenRate() float64 {
	if p.Count == 0 {
		return 0
	}
	return float64(p.Taken) / float64(p.Count)
}

// Profile tallies the trace per static branch, ordered by descending
// execution count (ties by PC). Static branches are interned to dense
// indexes so the hot loop updates a flat tally slice — one map lookup
// per event, no per-branch pointer allocations — and the final ordering
// comes from sorting the values directly.
func Profile(events []BranchEvent) []BranchProfile {
	idByPC := map[uint64]int{}
	var out []BranchProfile
	for _, e := range events {
		id, ok := idByPC[e.PC]
		if !ok {
			id = len(out)
			idByPC[e.PC] = id
			out = append(out, BranchProfile{PC: e.PC})
		}
		out[id].Count++
		if e.Taken {
			out[id].Taken++
		}
	}
	slices.SortFunc(out, func(a, b BranchProfile) int {
		if a.Count != b.Count {
			if a.Count > b.Count {
				return -1
			}
			return 1
		}
		switch {
		case a.PC < b.PC:
			return -1
		case a.PC > b.PC:
			return 1
		}
		return 0
	})
	return out
}

// GlobalMarkov builds, for each requested branch, an order-N Markov model
// mapping the GLOBAL history (outcomes of the N most recent branches of
// any address, the newest in bit 0) to the branch's outcome — the §7.3
// training scheme for per-branch custom predictors. Branches executed
// before N global outcomes exist are skipped.
func GlobalMarkov(events []BranchEvent, targets map[uint64]bool, order int) map[uint64]*markov.Model {
	models := make(map[uint64]*markov.Model, len(targets))
	for pc := range targets {
		models[pc] = markov.New(order)
	}
	h := bitseq.NewHistory(order)
	for _, e := range events {
		if m, ok := models[e.PC]; ok && h.Warm() {
			m.Observe(h.Value(), e.Taken)
		}
		h.Push(e.Taken)
	}
	return models
}

// --- encodings ---

const (
	branchMagic = "fsmp-branch-v1"
	loadMagic   = "fsmp-load-v1"
	bitsMagic   = "fsmp-bits-v1"
)

// CanonicalBits renders a binary outcome sequence in its canonical byte
// form: a versioned header carrying the exact bit count, followed by the
// bits packed eight per byte (bit i of the sequence in bit i%8 of byte
// i/8). Two sequences produce the same bytes iff they contain the same
// bits in the same order, regardless of how they were built or what
// whitespace the textual source contained — which makes the encoding a
// sound input for content addressing (the design service hashes it to
// key its cache). The header's length field disambiguates sequences that
// differ only by trailing zero bits.
func CanonicalBits(b *bitseq.Bits) []byte {
	n := b.Len()
	header := fmt.Sprintf("%s %d\n", bitsMagic, n)
	out := make([]byte, len(header), len(header)+(n+7)/8)
	copy(out, header)
	var cur byte
	for i := 0; i < n; i++ {
		if b.At(i) {
			cur |= 1 << uint(i%8)
		}
		if i%8 == 7 {
			out = append(out, cur)
			cur = 0
		}
	}
	if n%8 != 0 {
		out = append(out, cur)
	}
	return out
}

// WriteBranches streams the trace in a compact binary form: a magic
// header, the event count, then per event a uvarint PC and a direction
// byte.
func WriteBranches(w io.Writer, events []BranchEvent) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s %d\n", branchMagic, len(events)); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64 + 1]byte
	for _, e := range events {
		n := binary.PutUvarint(buf[:], e.PC)
		if e.Taken {
			buf[n] = 1
		} else {
			buf[n] = 0
		}
		if _, err := bw.Write(buf[:n+1]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBranches reads a trace written by WriteBranches.
func ReadBranches(r io.Reader) ([]BranchEvent, error) {
	br := bufio.NewReader(r)
	var n int
	if _, err := fmt.Fscanf(br, branchMagic+" %d\n", &n); err != nil {
		return nil, fmt.Errorf("trace: bad branch header: %v", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("trace: negative event count %d", n)
	}
	events := make([]BranchEvent, 0, n)
	for i := 0; i < n; i++ {
		pc, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d: %v", i, err)
		}
		dir, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: event %d: %v", i, err)
		}
		events = append(events, BranchEvent{PC: pc, Taken: dir != 0})
	}
	return events, nil
}

// WriteLoads streams a load-value trace in binary form.
func WriteLoads(w io.Writer, events []LoadEvent) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s %d\n", loadMagic, len(events)); err != nil {
		return err
	}
	var buf [2 * binary.MaxVarintLen64]byte
	for _, e := range events {
		n := binary.PutUvarint(buf[:], e.PC)
		n += binary.PutUvarint(buf[n:], e.Value)
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLoads reads a trace written by WriteLoads.
func ReadLoads(r io.Reader) ([]LoadEvent, error) {
	br := bufio.NewReader(r)
	var n int
	if _, err := fmt.Fscanf(br, loadMagic+" %d\n", &n); err != nil {
		return nil, fmt.Errorf("trace: bad load header: %v", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("trace: negative event count %d", n)
	}
	events := make([]LoadEvent, 0, n)
	for i := 0; i < n; i++ {
		pc, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d: %v", i, err)
		}
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d: %v", i, err)
		}
		events = append(events, LoadEvent{PC: pc, Value: v})
	}
	return events, nil
}

// WriteBranchesText renders the trace one "pc direction" pair per line —
// the human-auditable form used by the command-line tools.
func WriteBranchesText(w io.Writer, events []BranchEvent) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		dir := 0
		if e.Taken {
			dir = 1
		}
		if _, err := fmt.Fprintf(bw, "%#x %d\n", e.PC, dir); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBranchesText parses the text form written by WriteBranchesText.
func ReadBranchesText(r io.Reader) ([]BranchEvent, error) {
	sc := bufio.NewScanner(r)
	var events []BranchEvent
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Text()) == 0 {
			continue
		}
		var pc uint64
		var dir int
		if _, err := fmt.Sscanf(sc.Text(), "%v %d", &pc, &dir); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		events = append(events, BranchEvent{PC: pc, Taken: dir != 0})
	}
	return events, sc.Err()
}
