//go:build !race

package extmem

const raceEnabled = false
