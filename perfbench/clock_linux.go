package main

import (
	"context"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// On Linux the runtime's timers wake an idle process with millisecond
// granularity (a 50µs sleep returns about 1ms late), which would add up to
// a millisecond of the generator's own lateness to every latency. The last
// stretch of each wait therefore reads a timerfd through the network
// poller, which wakes within tens of microseconds.

// precise is how much of a wait the timerfd covers; longer waits sleep on a
// runtime timer until then, honouring ctx.
const precise = 20 * time.Millisecond

var timerfds = sync.Pool{New: func() any { return newTimerfd() }}

type timerfd struct {
	f   *os.File
	err error
}

func newTimerfd() *timerfd {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return &timerfd{err: errno}
	}
	return &timerfd{f: os.NewFile(fd, "timerfd")}
}

// wait arms the timer for d and blocks until it expires.
func (t *timerfd) wait(d time.Duration) error {
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return errno
	}
	var buf [8]byte
	_, err := t.f.Read(buf[:])
	return err
}

func sleepUntil(ctx context.Context, t time.Time) error {
	if d := time.Until(t); d > precise {
		if err := timerSleep(ctx, t.Add(-precise)); err != nil {
			return err
		}
	}
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	tfd := timerfds.Get().(*timerfd)
	if tfd.err != nil {
		// No timerfd (a sandbox may refuse it): fall back to the runtime.
		return timerSleep(ctx, t)
	}
	if err := tfd.wait(d); err != nil {
		tfd.f.Close()
		return timerSleep(ctx, t)
	}
	timerfds.Put(tfd)
	return nil
}
