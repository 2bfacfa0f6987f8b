//go:build !linux

package main

import "time"

// sleepFor is the portable fallback; see pace_linux.go for why Linux does
// not use it.
func sleepFor(d time.Duration) { time.Sleep(d) }
