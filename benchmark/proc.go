package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// userHz is the unit of the CPU times in /proc/<pid>/stat. Linux fixes
// it at 100 for every architecture's user-space interface.
const userHz = 100

// proc is one subprocess of the benchmark.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
}

// startProc launches bin with args, its output appended to a log file
// under outDir. The process is killed when ctx ends.
func startProc(ctx context.Context, outDir, name, bin string, args ...string) (*proc, error) {
	log, err := os.Create(filepath.Join(outDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout = log
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	return &proc{name: name, cmd: cmd, log: log}, nil
}

// stop kills the process and waits until it has ended. Nothing the
// servers hold is worth a graceful drain, and a drain would add the
// servers' three-second readiness grace to every set-up.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // already exited is fine
	_ = p.cmd.Wait()         // "signal: killed" is the expected result
	p.log.Close()
}

// cpuSeconds returns the user+system CPU time the process has used.
func (p *proc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPUTicks(string(raw))
	return float64(ticks) / userHz, err
}

// peakRSSMiB returns the process's resident-set high-water mark.
func (p *proc) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusVmHWM(string(raw))
	return float64(kb) / 1024, err
}

// parseStatCPUTicks extracts utime+stime (fields 14 and 15) from the
// contents of /proc/<pid>/stat. The command name (field 2) may contain
// spaces and parentheses, so fields are counted from its closing one.
func parseStatCPUTicks(stat string) (int64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	fields := strings.Fields(stat[end+1:])
	// fields[0] is field 3 (state), so fields 14 and 15 are at 11 and 12.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusVmHWM extracts the VmHWM line, in kB, from the contents of
// /proc/<pid>/status.
func parseStatusVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// freeAddr returns a loopback address no one listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// stack is one deployment of the real binaries: a graph file from
// emigre-gen, one emigre-server or two behind an emigre-router.
type stack struct {
	procs []*proc
	// front is the base URL clients talk to: the router's on a routed
	// stack, the server's otherwise.
	front string
	// graphPath is the file emigre-gen wrote and the servers loaded.
	graphPath string
}

// startStack runs emigre-gen and boots the servers, returning once
// every process answers /readyz. Processes already started are stopped
// when a later step fails.
func startStack(ctx context.Context, binDir, outDir string, routed bool) (_ *stack, err error) {
	st := &stack{graphPath: filepath.Join(outDir, "lite.json")}
	defer func() {
		if err != nil {
			st.stop()
		}
	}()
	gen := exec.CommandContext(ctx, filepath.Join(binDir, "emigre-gen"),
		"-preset", "lite", "-stats=false", "-out", st.graphPath)
	if out, err := gen.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("emigre-gen: %w\n%s", err, out)
	}
	backends := 1
	if routed {
		backends = 2
	}
	var servers []string // host:port of each emigre-server
	for i := 0; i < backends; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := append([]string{"-graph", st.graphPath, "-addr", addr}, serverFlags...)
		p, err := startProc(ctx, outDir, fmt.Sprintf("server-%d", i), filepath.Join(binDir, "emigre-server"), args...)
		if err != nil {
			return nil, err
		}
		st.procs = append(st.procs, p)
		servers = append(servers, addr)
	}
	// Backends first: the router counts a backend as ready until a probe
	// says otherwise, so it is ready as soon as it listens.
	for _, addr := range servers {
		if err := waitReady(ctx, "http://"+addr); err != nil {
			return nil, err
		}
	}
	st.front = "http://" + servers[0]
	if routed {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p, err := startProc(ctx, outDir, "router", filepath.Join(binDir, "emigre-router"),
			"-listen", addr, "-backends", strings.Join(servers, ","))
		if err != nil {
			return nil, err
		}
		st.procs = append(st.procs, p)
		st.front = "http://" + addr
		if err := waitReady(ctx, st.front); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (st *stack) stop() {
	for _, p := range st.procs {
		p.stop()
	}
	st.procs = nil
}

// cpuSeconds sums the CPU time of every server and router process.
func (st *stack) cpuSeconds() (float64, error) {
	var sum float64
	for _, p := range st.procs {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		sum += s
	}
	return sum, nil
}

// peakRSSMiB returns the largest resident-set high-water mark among the
// server and router processes.
func (st *stack) peakRSSMiB() (float64, error) {
	var peak float64
	for _, p := range st.procs {
		mib, err := p.peakRSSMiB()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		peak = max(peak, mib)
	}
	return peak, nil
}

// waitReady polls base/readyz until it answers 200. A process that died
// ends the wait through ctx only; the caller bounds it.
func waitReady(ctx context.Context, base string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s/readyz: %w (last error: %v)", base, ctx.Err(), err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}
