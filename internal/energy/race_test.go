//go:build race

package energy

func init() { raceEnabled = true }
