package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// pipdFlags is the server configuration every run uses, stated in the
// output: durable, fsync on every commit, default snapshot cadence, default
// workers (one per CPU).
var pipdFlags = []string{"-fsync=true", "-snapshot-every", "256", "-seed", strconv.Itoa(engineSeed), "-quiet"}

// engineSeed is pipd's world seed; the in-process twins use the same one, or
// their answers would not be the server's.
const engineSeed = 1

// healthPoll is the /healthz polling interval while a pipd boots; it bounds
// how far setup_s and recovery_s overstate the true readiness time.
const healthPoll = time.Millisecond

// buildPipd compiles cmd/pipd from the checkout's sources. src is the
// benchmark module's directory: the pip module is required from there
// through a local replace, so the package path resolves without a network.
func buildPipd(ctx context.Context, src, dst string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dst, "pip/cmd/pipd")
	cmd.Dir = src
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build pipd: %w\n%s", err, out)
	}
	return nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// pipd is one server subprocess; args fixes its role (durable primary on a
// data directory, or follower), so a restart reproduces it exactly.
type pipd struct {
	bin, addr string
	args      []string
	log       io.Writer
	cmd       *exec.Cmd
	hc        *http.Client
}

// durable returns the arguments of a durable server on dir.
func durable(dir string, extra ...string) []string {
	return append(append([]string{"-data-dir", dir}, pipdFlags...), extra...)
}

// start launches the process and returns once /healthz answers. The child
// is killed if the harness dies, so a crashed run cannot leave a server
// behind to disturb the next one.
func (p *pipd) start(ctx context.Context) error {
	p.cmd = exec.Command(p.bin, append([]string{"-addr", p.addr}, p.args...)...)
	p.cmd.Stderr = p.log
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("start pipd: %w", err)
	}
	if p.hc == nil {
		p.hc = &http.Client{Timeout: 2 * time.Second}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if p.healthy(ctx) {
			return nil
		}
		if err := ctx.Err(); err != nil {
			p.kill()
			return err
		}
		if time.Now().After(deadline) {
			p.kill()
			return fmt.Errorf("pipd on %s did not answer /healthz within 30s", p.addr)
		}
		time.Sleep(healthPoll)
	}
}

func (p *pipd) healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// kill sends SIGKILL and reaps the process; it is safe to call twice.
func (p *pipd) kill() {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait() // the exit status of a killed process carries nothing
	p.cmd = nil
	p.hc.CloseIdleConnections()
}

// crashRestart SIGKILLs the server and restarts it with the same arguments
// (same directory, same address), returning the time from the kill until /healthz answered:
// process teardown, exec, recovery (snapshot load + log replay) and listen.
func (p *pipd) crashRestart(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	p.kill()
	if err := p.start(ctx); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func (p *pipd) pid() int { return p.cmd.Process.Pid }

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTick = 100

// cpuSeconds reads the process's user+system CPU time.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (utime + stime) / clockTick, nil
}

// rssPeakMiB reads the process's resident-set high-water mark.
func rssPeakMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrapeMetrics fetches /metrics as a map from series (name plus labels,
// as printed) to value.
func (p *pipd) scrapeMetrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// otherPipd reports the pid of a running process named pipd, 0 if none: a
// second server on the box competes for the two cores the numbers assume.
func otherPipd() int {
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		comm, err := os.ReadFile(filepath.Join("/proc", e.Name(), "comm"))
		if err == nil && strings.TrimSpace(string(comm)) == "pipd" {
			return pid
		}
	}
	return 0
}

// fsType names the filesystem holding path, from /proc/mounts (the longest
// mount point that prefixes the path).
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
