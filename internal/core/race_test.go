//go:build race

package core

// raceSlowdown scales wall-clock deadlines in tests whose work is CPU-bound:
// the race detector runs the taint evaluator about 5.6× slower.
const raceSlowdown = 5
