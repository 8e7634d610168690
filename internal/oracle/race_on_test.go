//go:build race

package oracle

// raceEnabled reports that this test binary was built with the race
// detector, under which allocation counts are not meaningful (sync.Pool
// is deliberately leaky and instrumentation allocates).
const raceEnabled = true
