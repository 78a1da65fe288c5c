//go:build !race

package tcpgob

// raceDetectorEnabled reports whether this test binary was built with
// -race. See race_on_test.go.
const raceDetectorEnabled = false
