//go:build race

package simsrv

func init() { raceEnabled = true }
