//go:build race

package core

// raceBuild reports whether the race detector is compiled in; host-time
// gates skip under its several-fold slowdown.
const raceBuild = true
