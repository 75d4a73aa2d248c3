package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// command prepares a program under test. It runs with GOMAXPROCS pinned
// to the host's CPU count, as the benchmark itself does, so runs on one
// host always use the same parallelism, and it is killed if the benchmark
// dies before stopping it.
func command(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// procResult is what one finished child process cost.
type procResult struct {
	Wall     time.Duration
	MaxRSS   float64 // MiB, from the kernel's high-water mark
	ExitCode int
	Stdout   []byte
	// Marks holds, per watched line prefix, the time from start until the
	// first stdout line with that prefix appeared.
	Marks map[string]time.Duration
}

// runProc runs a program to completion, capturing stdout (stderr goes to
// the benchmark's stderr) and timing the first appearance of each prefix
// in watch. A non-zero exit is reported in ExitCode, not as an error.
func runProc(ctx context.Context, watch []string, name string, args ...string) (procResult, error) {
	cmd := command(ctx, name, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return procResult{}, err
	}
	res := procResult{Marks: map[string]time.Duration{}}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return procResult{}, fmt.Errorf("start %s: %w", name, err)
	}
	var buf bytes.Buffer
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		for _, p := range watch {
			if _, ok := res.Marks[p]; !ok && bytes.HasPrefix(line, []byte(p)) {
				res.Marks[p] = time.Since(start)
			}
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	scanErr := sc.Err()
	if scanErr != nil {
		_, _ = io.Copy(io.Discard, out) // let the child finish writing
	}
	waitErr := cmd.Wait()
	res.Wall = time.Since(start)
	res.Stdout = buf.Bytes()
	if cmd.ProcessState == nil {
		return res, fmt.Errorf("%s: %w", name, waitErr)
	}
	res.ExitCode = cmd.ProcessState.ExitCode()
	fillUsage(&res, cmd.ProcessState)
	if scanErr != nil {
		return res, fmt.Errorf("%s stdout: %w", name, scanErr)
	}
	if ctx.Err() != nil {
		return res, fmt.Errorf("%s: %w", name, ctx.Err())
	}
	return res, nil
}

// fillUsage copies a finished process's rusage into res.
func fillUsage(res *procResult, ps *os.ProcessState) {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		res.MaxRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

// lines returns out's lines that start with prefix.
func lines(out []byte, prefix string) []string {
	var got []string
	for _, l := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(l, prefix) {
			got = append(got, l)
		}
	}
	return got
}

// procCPU reads a live process's consumed CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var utime, stime int64
	if _, err := fmt.Sscan(f[11], &utime); err != nil {
		return 0, err
	}
	if _, err := fmt.Sscan(f[12], &stime); err != nil {
		return 0, err
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(utime+stime) * time.Second / clkTck, nil
}
