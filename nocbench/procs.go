package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process the benchmark started.
type proc struct {
	name    string
	cmd     *exec.Cmd
	url     string
	scanned chan struct{} // closed once the log scanner has drained stderr
}

// listenRe matches the startup line nocmapd and nocmapsh log once their
// listener is bound.
var listenRe = regexp.MustCompile(`listening on (http://[0-9.:]+)`)

// startProc execs bin with args, tees its stderr into logPath and waits
// for the "listening on" line to learn the bound address.
func startProc(ctx context.Context, name, bin string, args []string, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	// The kernel kills the server if the benchmark dies first, however
	// it dies, so no run leaves a server behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = logf
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, scanned: make(chan struct{})}
	urlc := make(chan string, 1)
	go func() {
		defer close(p.scanned)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case urlc <- m[1]:
				default:
				}
			}
		}
		_, _ = io.Copy(logf, stderr) // drain after a scanner error so the child never blocks
	}()
	select {
	case p.url = <-urlc:
		return p, nil
	case <-p.scanned:
		p.wait()
		return nil, fmt.Errorf("%s exited before listening (log: %s)", name, logPath)
	case <-ctx.Done():
		p.kill()
		return nil, fmt.Errorf("%s did not start listening: %w (log: %s)", name, ctx.Err(), logPath)
	}
}

// stop asks the process to shut down gracefully and waits for it,
// killing it if it has not exited within the grace period.
func (p *proc) stop(grace time.Duration) error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- p.wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		return nil
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s ignored SIGTERM for %v and was killed", p.name, grace)
	}
}

func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	_ = p.wait()
}

// wait reaps the process after its stderr has been drained.
func (p *proc) wait() error {
	<-p.scanned
	return p.cmd.Wait()
}

// waitHealthy polls GET url/healthz until it answers 200.
func waitHealthy(ctx context.Context, c *http.Client, url string) error {
	for {
		if resp, err := c.Get(url + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s/healthz: %w", url, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// getJSON decodes GET url into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// procUsage is what /proc reports about one process.
type procUsage struct {
	// HWMKiB is the peak resident set (VmHWM) in KiB.
	HWMKiB int64
	// CPUTicks is utime+stime in clock ticks.
	CPUTicks int64
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times. Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

func readUsage(pid int) (procUsage, error) {
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return procUsage{}, err
	}
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return procUsage{}, err
	}
	hwm, err := parseVmHWM(string(status))
	if err != nil {
		return procUsage{}, err
	}
	ticks, err := parseCPUTicks(string(stat))
	if err != nil {
		return procUsage{}, err
	}
	return procUsage{HWMKiB: hwm, CPUTicks: ticks}, nil
}

// parseVmHWM extracts the VmHWM line ("VmHWM:   12345 kB") of a
// /proc/<pid>/status file, in KiB.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("no VmHWM line in status")
}

// parseCPUTicks sums utime and stime (fields 14 and 15) of a
// /proc/<pid>/stat line. The command name (field 2) is parenthesized
// and may itself hold spaces and parentheses, so fields are counted
// from the last ')'.
func parseCPUTicks(stat string) (int64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("malformed stat line %q", stat)
	}
	f := strings.Fields(stat[end+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the name, want >= 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stime: %w", err)
	}
	return utime + stime, nil
}
