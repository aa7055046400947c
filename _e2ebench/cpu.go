package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// An idle virtual CPU halts, and waking it again can take milliseconds:
// on a two-vCPU VM a 500 µs nanosleep overshoots by ~1.5 ms at p99, against
// ~0.2 ms when the CPU never halts. That wake-up cost would land on every
// request that finds the server's or the client's CPU idle. The benchmark
// therefore keeps every CPU busy with one spinning thread per CPU under
// SCHED_IDLE, the policy that runs only when nothing else wants the CPU and
// is preempted the moment anything does.

const schedIdle = 5 // SCHED_IDLE in <sched.h>

// spinForever is the body of the spinner process.
func spinForever() {
	for i := 0; i < runtime.NumCPU(); i++ {
		go func(cpu int) {
			runtime.LockOSThread()
			var mask [16]uint64 // cpu_set_t
			mask[cpu/64] = 1 << (cpu % 64)
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); e != 0 {
				os.Exit(1)
			}
			var param int32 // sched_priority must be 0 for SCHED_IDLE
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
				os.Exit(1) // never spin at normal priority
			}
			for {
			}
		}(i)
	}
	select {}
}

// startSpinners launches the spinner process; the caller kills it and
// waits for it with stopChild.
func startSpinners() (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-spin")
	cmd.SysProcAttr = childAttr()
	return cmd, cmd.Start()
}

// childAttr makes a child die with the benchmark, whatever ends it.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func stopChild(cmd *exec.Cmd) {
	_ = cmd.Process.Kill()
	_ = cmd.Wait() // killed on purpose; the exit status carries nothing
}
