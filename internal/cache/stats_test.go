package cache

import (
	"testing"

	"tshmem/internal/stats"
)

// stats.CacheLevel cannot alias Level without an import cycle, so
// internal/core converts by value when it accounts a charged copy. This
// pins the two declaration orders together; if either enum changes, this
// test fails before any counter is misclassified.
func TestStatsLevelMirrorsCacheLevel(t *testing.T) {
	pairs := []struct {
		c Level
		s stats.CacheLevel
	}{
		{L1d, stats.CacheL1d},
		{L2, stats.CacheL2},
		{DDC, stats.CacheDDC},
		{DRAM, stats.CacheDRAM},
	}
	for _, p := range pairs {
		if int(p.c) != int(p.s) {
			t.Errorf("cache.%v = %d but stats.%v = %d", p.c, int(p.c), p.s, int(p.s))
		}
		if p.c.String() != p.s.String() {
			t.Errorf("name mismatch: cache %q vs stats %q", p.c, p.s)
		}
	}
	if int(stats.NumCacheLevels) != int(DRAM)+1 {
		t.Errorf("stats.NumCacheLevels = %d, want %d", stats.NumCacheLevels, int(DRAM)+1)
	}
}
