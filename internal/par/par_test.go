package par

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	big := 10 * runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, n, want int
	}{
		{0, big, runtime.GOMAXPROCS(0)},
		{-3, big, runtime.GOMAXPROCS(0)},
		{4, big, 4},
		{8, 3, 3},
		{2, 0, 1},
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.n, got, c.want)
		}
	}
}

func TestMapOrderDeterministic(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		out, err := Map(context.Background(), workers, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 4, 0, func(i int) (int, error) {
		t.Fatal("fn called for empty range")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("got (%v, %v), want empty", out, err)
	}
}

func TestMapFirstErrorWins(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	// Index 3 fails slowly, index 17 fails fast: the error at the lowest
	// index must win even though it finishes later.
	_, err := Map(context.Background(), 8, 32, func(i int) (int, error) {
		switch i {
		case 3:
			time.Sleep(20 * time.Millisecond)
			return 0, errLow
		case 17:
			return 0, errHigh
		}
		return i, nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("got %v, want %v", err, errLow)
	}
}

func TestMapSequentialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	_, err := Map(context.Background(), 1, 10, func(i int) (int, error) {
		calls.Add(1)
		if i == 4 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if calls.Load() != 5 {
		t.Fatalf("sequential path ran %d calls after error, want 5", calls.Load())
	}
}

func TestMapContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once atomic.Bool
	_, err := Map(ctx, 4, 1000, func(i int) (int, error) {
		if once.CompareAndSwap(false, true) {
			cancel() // cancel mid-flight, from inside the batch
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestMapPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	_, err := Map(ctx, 1, 10, func(i int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("fn ran %d times on pre-cancelled context", ran.Load())
	}
}

func TestMapSlice(t *testing.T) {
	in := []string{"a", "bb", "ccc"}
	out, err := MapSlice(context.Background(), 2, in, func(i int, s string) (int, error) {
		return len(s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != len(in[i]) {
			t.Fatalf("out[%d] = %d, want %d", i, v, len(in[i]))
		}
	}
}

// TestMapClaimsInIndexOrder pins Map's claim order, which callers use to
// start their costliest task first. Each fn records its index under a
// mutex as it starts. A worker starts fn(i) right after claiming i, so
// when claims ascend, every index below i is already claimed when i
// starts, and at most workers-1 of them (one per other worker) can still
// be between claim and record: the index recorded at position p is at
// most p+workers-1. Any other claim order breaks that window at once —
// descending claims, for one, record n-1 first.
func TestMapClaimsInIndexOrder(t *testing.T) {
	const workers, n = 3, 300
	for round := 0; round < 20; round++ {
		var (
			mu  sync.Mutex
			seq []int
		)
		if _, err := Map(context.Background(), workers, n, func(i int) (struct{}, error) {
			mu.Lock()
			seq = append(seq, i)
			mu.Unlock()
			runtime.Gosched()
			return struct{}{}, nil
		}); err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n)
		for p, i := range seq {
			if seen[i] {
				t.Fatalf("round %d: index %d ran twice", round, i)
			}
			seen[i] = true
			if i > p+workers-1 {
				t.Fatalf("round %d: index %d started at position %d; claims are not ascending: %v",
					round, i, p, seq[:p+1])
			}
		}
		if len(seq) != n {
			t.Fatalf("round %d: %d of %d indices ran", round, len(seq), n)
		}
	}
}

// TestMapStress drives Map under the race detector with random worker
// counts, injected errors, and mid-flight cancellations — the satellite
// stress test for the fan-out machinery.
func TestMapStress(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(64)
		workers := rng.Intn(12)
		failAt := -1
		if rng.Intn(2) == 0 {
			failAt = rng.Intn(n)
		}
		cancelEarly := rng.Intn(4) == 0

		ctx, cancel := context.WithCancel(context.Background())
		if cancelEarly {
			go cancel()
		}
		wantErr := fmt.Errorf("injected at %d", failAt)
		out, err := Map(ctx, workers, n, func(i int) (int, error) {
			if i == failAt {
				return 0, wantErr
			}
			return i + 1, nil
		})
		cancel()

		if len(out) != n {
			t.Fatalf("round %d: len(out) = %d, want %d", round, len(out), n)
		}
		switch {
		case err == nil:
			if failAt >= 0 {
				t.Fatalf("round %d: injected error at %d was swallowed", round, failAt)
			}
			for i, v := range out {
				if v != i+1 {
					t.Fatalf("round %d: out[%d] = %d, want %d", round, i, v, i+1)
				}
			}
		case errors.Is(err, wantErr) || errors.Is(err, context.Canceled):
			// Expected failure mode; slots that did complete must hold
			// either the zero value or the correct result.
			for i, v := range out {
				if v != 0 && v != i+1 {
					t.Fatalf("round %d: out[%d] = %d, want 0 or %d", round, i, v, i+1)
				}
			}
		default:
			t.Fatalf("round %d: unexpected error %v", round, err)
		}
	}
}

func BenchmarkMapOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Map(context.Background(), 4, 64, func(i int) (int, error) {
			return i, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
