//go:build !race

package main

// raceEnabled reports whether this binary was built with -race.
const raceEnabled = false
