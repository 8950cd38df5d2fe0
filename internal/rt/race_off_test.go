//go:build !race

package rt

const raceEnabled = false
