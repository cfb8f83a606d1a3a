// Package cache models the Tilera memory hierarchy described in Section
// III.A of the paper: per-tile L1i/L1d/L2 caches, the Dynamic Distributed
// Cache (DDC — an L3 formed by aggregating every tile's L2), and the three
// memory-homing strategies (local, remote, hash-for-home).
//
// # Bandwidth model
//
// The package exposes an effective-bandwidth model for memory-copy
// operations. Bandwidth is interpolated in log-size space between
// calibrated anchors carried by the chip description (arch.CopyCurve),
// reproducing the cache-capacity knees of Figure 3, and is degraded by a
// concurrency term when many tiles stream simultaneously, reproducing the
// aggregate saturation of Figures 10–12. Two curves exist per chip: one
// for private-to-private copies within a tile's heap and one for the
// shared (TMC common memory, hash-for-home) regime that TSHMEM's
// one-sided transfers live in.
//
// # Homing
//
// BandwidthHomed encodes the qualitative trade-offs of Section III.A:
// hash-for-home follows the calibrated curve with the DDC spreading lines
// across all tiles; local homing is slightly faster while the working set
// fits the tile's own L2 but forfeits the DDC beyond it; remote homing
// pays a flat penalty to a single home tile and, under concurrency,
// serializes all fan-in at that tile — the bottleneck the paper warns
// about.
//
// # Costs and levels
//
// CopyCost/CopyCostHomed convert bandwidth into virtual time for one
// memcpy (fixed per-call overhead plus size over effective bandwidth);
// StreamCost models loops whose working set keeps evicting itself;
// LevelFor classifies a working set by the hierarchy level that backs it
// (L1d, L2, DDC, or DRAM), which is also the classification the
// observability layer uses to attribute charged copies as cache hits
// (L1d/L2/DDC) or misses (DRAM): internal/core accounts each charged copy
// on the calling PE's stats.Recorder under stats.CacheLevel(LevelFor(n)).
//
// # The memo
//
// A Memo caches fully computed copy costs per (size, mode, homing, streams)
// tuple for one run. Lookup is its hit path and inlines into the caller;
// on a miss the caller goes on to Memo.CopyCostHomed, which computes the
// cost and stores it. A hit returns exactly what the miss stored, so a
// memoized cost is bit-identical to an unmemoized one.
package cache
