package server_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the run when goroutines of this package outlive the
// tests: every test closes what it starts, so a worker, flusher, push
// loop or handler still running afterwards is a leak.
func TestMain(m *testing.M) {
	code := m.Run()
	if leaked := serverGoroutines(2 * time.Second); leaked != "" {
		fmt.Fprintf(os.Stderr, "goroutines of repro/nocmap/server outlived the tests:\n\n%s\n", leaked)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// serverGoroutines waits up to wait for every goroutine with a frame in
// package server to exit, and returns the stacks of those left.
func serverGoroutines(wait time.Duration) string {
	deadline := time.Now().Add(wait)
	for {
		buf := make([]byte, 1<<16)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		var left []string
		// The first stack is this goroutine's own.
		for _, g := range strings.Split(string(buf), "\n\n")[1:] {
			if strings.Contains(g, "repro/nocmap/server.") {
				left = append(left, g)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return strings.Join(left, "\n\n")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
