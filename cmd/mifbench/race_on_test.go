//go:build race

package main

// raceEnabled reports that this binary was built with -race.
const raceEnabled = true
