//go:build !race

package core

// raceSlowdown scales wall-clock deadlines in tests whose work is CPU-bound;
// without the race detector they keep their nominal limits.
const raceSlowdown = 1
