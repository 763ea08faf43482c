//go:build race

package broker

// raceEnabled lets allocation-counting tests step aside under -race.
const raceEnabled = true
