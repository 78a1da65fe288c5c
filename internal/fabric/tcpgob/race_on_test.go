//go:build race

package tcpgob

// raceDetectorEnabled reports whether this test binary was built with
// -race. The allocation-budget assertions are skipped under the detector,
// whose instrumentation allocates on its own.
const raceDetectorEnabled = true
