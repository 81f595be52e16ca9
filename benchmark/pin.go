package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is the kernel's CPU affinity mask, wide enough for 1024 CPUs.
type cpuSet [16]uint64

func setAffinity(tid int, set *cpuSet) syscall.Errno {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set)))
	return e
}

// pinToOneCPU confines this process, and so every pipd it starts, to the
// highest-numbered CPU it may run on, and returns that CPU. On a few cores
// of a shared host a request that crosses CPUs pays for waking an idle
// virtual CPU, which costs anything between nothing and the request itself
// depending on what the host is doing: the same binary served 1 900 and
// 3 900 point reads a second in back-to-back runs. On one CPU the client and
// the server hand over without leaving it (a closed-loop client and its
// server never compute at the same time anyway), and the other CPUs are left
// to the rest of the box. pipd sees one CPU and sizes itself for it.
func pinToOneCPU() (int, error) {
	var allowed cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := range len(allowed) * 64 {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity returned no CPU")
	}
	var one cpuSet
	one[cpu/64] = 1 << (cpu % 64)
	// Affinity is per thread and inherited at creation. The second pass
	// catches a thread that a not yet confined one started during the first.
	for range 2 {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if e := setAffinity(tid, &one); e != 0 && e != syscall.ESRCH { // ESRCH: the thread has exited
				return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	runtime.GOMAXPROCS(1) // a second P would only spin on the one CPU
	return cpu, nil
}
