package main

import (
	"runtime"
	"syscall"
	"time"
)

// prctl(2) options for the thread's timer slack.
const (
	prSetTimerslack = 29
	prGetTimerslack = 30
)

// pacer sleeps its goroutine with microsecond precision. Go's timers round
// a short sleep up to about a millisecond on Linux, which would make an
// open-loop generator publish in millisecond batches and charge that
// lateness to the system under test. The pacer locks its goroutine to an
// OS thread, sets that thread's timer slack to 1 ns, and sleeps with
// nanosleep(2): the thread blocks in the kernel, so pacing costs no
// spinning CPU. Use it from one goroutine, and stop it there.
type pacer struct{ slack uintptr }

func newPacer() *pacer {
	runtime.LockOSThread()
	old, _, _ := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerslack, 0, 0)
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	return &pacer{slack: old}
}

func (p *pacer) sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		// A runtime signal interrupted the sleep; ts holds what is left.
	}
}

// stop restores the thread's timer slack and unlocks the goroutine.
func (p *pacer) stop() {
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, p.slack, 0)
	runtime.UnlockOSThread()
}
