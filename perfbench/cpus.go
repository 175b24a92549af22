package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// The benchmark runs on one P (see main), so at any instant one thread
// does its work, and a run would take the speed of whichever CPU that
// thread sat on. On a virtual machine the CPUs' speeds drift apart with
// what their host siblings run, so runs of one build could differ by a
// quarter for no reason of the program's. The rotor moves every thread
// of the process to the next allowed CPU at each host-time slice and
// each set-up, so every run spends equal time on each CPU. No thread
// ever waits for another CPU, as it would with a P per CPU.

// cpuMask is a sched_setaffinity bit set of up to 1024 CPUs.
type cpuMask [16]uint64

type cpuRotor struct {
	cpus []int // CPUs the process may run on; rotation is off below two
	next int
}

// newCPURotor reads the CPUs the process is allowed to use.
func newCPURotor() *cpuRotor {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	r := &cpuRotor{}
	if errno != 0 {
		return r
	}
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			r.cpus = append(r.cpus, c)
		}
	}
	return r
}

// step pins every thread of the process to the next CPU. Threads the
// runtime starts later inherit the pin of the thread that starts them. A
// thread that exits between the listing and the call is skipped.
func (r *cpuRotor) step() {
	if r == nil || len(r.cpus) < 2 {
		return
	}
	c := r.cpus[r.next%len(r.cpus)]
	r.next++
	var m cpuMask
	m[c/64] = 1 << (c % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	}
}

// rotor is the process's rotor; main creates it before any run.
var rotor *cpuRotor
