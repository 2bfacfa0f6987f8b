package main

import (
	"syscall"
	"time"
)

// sleepFor blocks the calling thread in the kernel for d. Go's own timers
// fire up to a millisecond late on an idle host (measured here:
// time.Sleep(300µs) returns after 1.1 ms) because an idle scheduler waits
// in epoll with a millisecond timeout; nanosleep(2) overshoots by about
// 0.1 ms. At the open-loop phase's 500 µs request interval the first
// would make p50_us a measurement of the timer.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; the caller re-checks the clock
}
