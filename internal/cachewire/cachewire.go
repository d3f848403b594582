// Package cachewire is the one-call startup path for the persistent
// artifact tier: it opens the disk store and attaches it beneath every
// process-wide in-memory cache (the fsm block-table cache and the
// shared trace store), returning the store so callers can also hand it
// to service.Config.Disk. The CLIs that expose -cache-dir/-cache-size
// (fsmserved, paperrun) both funnel through here, so the four artifact
// producers always agree on one store.
package cachewire

import (
	"fmt"
	"strconv"
	"strings"

	"fsmpredict/internal/disktier"
	"fsmpredict/internal/fidelity"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/tracestore"
)

// Setup opens (creating if needed) the disk store at dir, bounded to
// maxBytes (0 means disktier.DefaultMaxBytes), and wires it beneath the
// process-wide caches. An empty dir means "no disk tier" and returns
// (nil, nil), so callers can pass a flag value through unconditionally.
func Setup(dir string, maxBytes int64) (*disktier.Store, error) {
	if dir == "" {
		return nil, nil
	}
	d, err := disktier.Open(dir, maxBytes)
	if err != nil {
		return nil, err
	}
	fsm.SetDiskTier(d)
	tracestore.Shared.SetDisk(d)
	fidelity.SetDiskTier(d)
	return d, nil
}

// ParseSize parses a human byte size for the -cache-size flag: a plain
// integer is bytes; K/M/G suffixes (optionally KiB/MiB/GiB or KB/MB/GB)
// are binary multiples. Empty means 0 (the store default).
func ParseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	upper := strings.ToUpper(s)
	for _, suf := range []struct {
		tail string
		mult int64
	}{
		{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
		{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
	} {
		if strings.HasSuffix(upper, suf.tail) {
			mult = suf.mult
			s = s[:len(s)-len(suf.tail)]
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cachewire: bad size %q: %v", s, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("cachewire: negative size %q", s)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("cachewire: size %q overflows", s)
	}
	return n * mult, nil
}
