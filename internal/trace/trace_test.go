package trace

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"fsmpredict/internal/bitseq"
)

func randomBranches(seed int64, n int) []BranchEvent {
	rng := rand.New(rand.NewSource(seed))
	events := make([]BranchEvent, n)
	for i := range events {
		events[i] = BranchEvent{
			PC:    0x1200000 + uint64(rng.Intn(8))*4,
			Taken: rng.Intn(2) == 1,
		}
	}
	return events
}

func TestOutcomes(t *testing.T) {
	events := []BranchEvent{{1, true}, {2, false}, {3, true}}
	if got := Outcomes(events).String(); got != "101" {
		t.Fatalf("Outcomes = %q, want 101", got)
	}
}

func TestProfile(t *testing.T) {
	events := []BranchEvent{
		{10, true}, {20, false}, {10, true}, {10, false}, {20, false},
	}
	prof := Profile(events)
	if len(prof) != 2 {
		t.Fatalf("profile has %d entries, want 2", len(prof))
	}
	if prof[0].PC != 10 || prof[0].Count != 3 || prof[0].Taken != 2 {
		t.Errorf("top entry = %+v", prof[0])
	}
	if r := prof[0].TakenRate(); r < 0.66 || r > 0.67 {
		t.Errorf("TakenRate = %v", r)
	}
	if (BranchProfile{}).TakenRate() != 0 {
		t.Error("empty profile should have zero rate")
	}
}

// profileOracle is the original map-of-pointers implementation of
// Profile, kept as the differential oracle for the interned tally path.
func profileOracle(events []BranchEvent) []BranchProfile {
	byPC := map[uint64]*BranchProfile{}
	for _, e := range events {
		p := byPC[e.PC]
		if p == nil {
			p = &BranchProfile{PC: e.PC}
			byPC[e.PC] = p
		}
		p.Count++
		if e.Taken {
			p.Taken++
		}
	}
	out := make([]BranchProfile, 0, len(byPC))
	for _, p := range byPC {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// TestProfileMatchesOracle checks the rewritten Profile against the old
// implementation on random traces, including heavy tie scenarios.
func TestProfileMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		events := randomBranches(seed, 4000)
		got, want := Profile(events), profileOracle(events)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d entries, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d entry %d: %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
	// All-ties: every branch executed exactly once, order must be by PC.
	var ties []BranchEvent
	for pc := uint64(100); pc > 0; pc-- {
		ties = append(ties, BranchEvent{PC: pc * 8, Taken: pc%2 == 0})
	}
	got, want := Profile(ties), profileOracle(ties)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ties entry %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(Profile(nil)) != 0 {
		t.Fatal("empty trace should produce empty profile")
	}
}

func TestProfileDeterministicOrder(t *testing.T) {
	events := []BranchEvent{{5, true}, {3, true}, {9, false}}
	p1, p2 := Profile(events), Profile(events)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("Profile order not deterministic")
		}
	}
	// Equal counts break ties by PC.
	if p1[0].PC != 3 || p1[1].PC != 5 || p1[2].PC != 9 {
		t.Errorf("tie-break order wrong: %+v", p1)
	}
}

func TestGlobalMarkov(t *testing.T) {
	// Branch 100 is always the inverse of the previous branch outcome.
	var events []BranchEvent
	rng := rand.New(rand.NewSource(1))
	prev := false
	for i := 0; i < 200; i++ {
		b := rng.Intn(2) == 1
		events = append(events, BranchEvent{PC: 50, Taken: b})
		prev = b
		events = append(events, BranchEvent{PC: 100, Taken: !prev})
	}
	models := GlobalMarkov(events, map[uint64]bool{100: true}, 2)
	m := models[100]
	if m.Total() == 0 {
		t.Fatal("no observations for target branch")
	}
	// For every observed history the outcome is the inverse of bit 0.
	for _, h := range m.Histories() {
		c := m.Count(h)
		if h&1 == 1 && c.Ones > 0 {
			t.Errorf("history %s followed by taken %d times; expected inverse correlation",
				bitseq.HistoryString(h, 2), c.Ones)
		}
		if h&1 == 0 && c.Zeros > 0 {
			t.Errorf("history %s followed by not-taken %d times", bitseq.HistoryString(h, 2), c.Zeros)
		}
	}
}

func TestGlobalMarkovSkipsColdStart(t *testing.T) {
	events := []BranchEvent{{7, true}, {7, false}, {7, true}, {7, true}}
	models := GlobalMarkov(events, map[uint64]bool{7: true}, 3)
	// Only the fourth event has 3 bits of history.
	if got := models[7].Total(); got != 1 {
		t.Fatalf("observations = %d, want 1", got)
	}
}

func TestBranchBinaryRoundTrip(t *testing.T) {
	events := randomBranches(3, 5000)
	var buf bytes.Buffer
	if err := WriteBranches(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBranches(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("length %d, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v vs %+v", i, got[i], events[i])
		}
	}
}

func TestBranchTextRoundTrip(t *testing.T) {
	events := randomBranches(5, 100)
	var buf bytes.Buffer
	if err := WriteBranchesText(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBranchesText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("length %d, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v vs %+v", i, got[i], events[i])
		}
	}
}

func TestLoadBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	events := make([]LoadEvent, 3000)
	for i := range events {
		events[i] = LoadEvent{PC: rng.Uint64() >> 20, Value: rng.Uint64()}
	}
	var buf bytes.Buffer
	if err := WriteLoads(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLoads(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := ReadBranches(bytes.NewBufferString("garbage")); err == nil {
		t.Error("expected branch header error")
	}
	if _, err := ReadLoads(bytes.NewBufferString("garbage")); err == nil {
		t.Error("expected load header error")
	}
	if _, err := ReadBranches(bytes.NewBufferString(branchMagic + " 5\n\x01")); err == nil {
		t.Error("expected truncation error")
	}
	if _, err := ReadBranchesText(bytes.NewBufferString("0x10 zz\n")); err == nil {
		t.Error("expected text parse error")
	}
}

func TestEmptyTraces(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBranches(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBranches(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v, %v", got, err)
	}
}

func TestCanonicalBits(t *testing.T) {
	// Construction route and source formatting must not matter.
	a := bitseq.MustFromString("0000 1000_1011 1101")
	b := bitseq.FromBools(a.Bools())
	ca, cb := CanonicalBits(a), CanonicalBits(b)
	if !bytes.Equal(ca, cb) {
		t.Errorf("same bits, different canonical form: %q vs %q", ca, cb)
	}
	if !bytes.HasPrefix(ca, []byte("fsmp-bits-v1 16\n")) {
		t.Errorf("bad header: %q", ca)
	}

	// Different content, lengths, and trailing zeros must all be distinct.
	distinct := []string{
		"", "0", "1", "00", "01", "10", "0000", "00000000", "000000000",
		"0000 1000 1011 1101", "0000 1000 1011 1100", "1111 1111",
	}
	seen := map[string]string{}
	for _, s := range distinct {
		key := string(CanonicalBits(bitseq.MustFromString(s)))
		if prev, ok := seen[key]; ok {
			t.Errorf("traces %q and %q share canonical form %q", prev, s, key)
		}
		seen[key] = s
	}

	// Packing is LSB-first within each byte: "1000 0000" -> 0x01.
	c := CanonicalBits(bitseq.MustFromString("1000 0000"))
	if payload := c[len(c)-1]; payload != 0x01 {
		t.Errorf("payload byte = %#x, want 0x01", payload)
	}
}
