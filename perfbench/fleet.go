package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
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

// buildDir holds everything the benchmark builds or writes; it sits at the
// root of the checkout and is ignored by git.
const buildDir = ".bench_build"

// buildFleet compiles crserve and crshard from the checkout's source tree
// into buildDir/bin and returns their paths. The go build cache makes
// repeated runs cheap.
func buildFleet() (serve, shard string, err error) {
	bin := filepath.Join(buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", "", err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/crserve", "./cmd/crshard")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", "", fmt.Errorf("build fleet: %w", err)
	}
	return filepath.Join(bin, "crserve"), filepath.Join(bin, "crshard"), nil
}

// proc is one fleet process.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
	log  *os.File
}

// fleet is one crshard coordinator in front of two crserve backends, each a
// separate process on loopback.
type fleet struct {
	coord    *proc
	backends []*proc
}

func (f *fleet) procs() []*proc { return append([]*proc{f.coord}, f.backends...) }

func (f *fleet) pids() []int {
	var out []int
	for _, p := range f.procs() {
		out = append(out, p.cmd.Process.Pid)
	}
	return out
}

// freePort picks an unused loopback port below the kernel's ephemeral
// range (32768 and up on Linux), so that no outgoing connection can take
// it between the check here and the child binding it.
func freePort() (int, error) {
	for i := 0; i < 100; i++ {
		port := 20000 + rand.Intn(12000)
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			continue
		}
		l.Close()
		return port, nil
	}
	return 0, errors.New("no free loopback port in 20000-31999")
}

func startProc(name, bin string, port int, args ...string) (*proc, error) {
	if err := os.MkdirAll(filepath.Join(buildDir, "logs"), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(buildDir, "logs", name+".log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Should the benchmark die without stopping the fleet, the kernel kills
	// the fleet with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop() decides when it ends
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM, waits for a graceful exit and kills the process if it
// does not come down in time. It returns once the process has ended.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// startFleet spawns two backends and a coordinator and waits until all
// three answer /readyz with 200.
func startFleet(serveBin, shardBin string) (*fleet, error) {
	f := &fleet{}
	ports := make([]int, 3)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	var urls []string
	for i := 0; i < 2; i++ {
		b, err := startProc(fmt.Sprintf("crserve-%d", i), serveBin, ports[i+1])
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, b)
		urls = append(urls, b.url)
	}
	c, err := startProc("crshard", shardBin, ports[0], "-backends", strings.Join(urls, ","))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = c
	deadline := time.Now().Add(30 * time.Second)
	for _, p := range f.procs() {
		if err := waitReady(p, deadline); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func waitReady(p *proc, deadline time.Time) error {
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming ready (see %s)", p.name, p.log.Name())
		default:
		}
		resp, err := client.Get(p.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s", p.name)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends every process of the fleet and waits for each.
func (f *fleet) stop() {
	if f.coord != nil {
		f.coord.stop()
		f.coord = nil
	}
	for _, b := range f.backends {
		b.stop()
	}
	f.backends = nil
}

// probe is one out-of-band observation of a fleet process: its Prometheus
// counters and its CPU time. Probes run only at the edges of the timed
// window, never on the request path.
type probe struct {
	metrics map[string]float64 // sample name (with labels) -> value
	cpuSec  float64
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds reads utime+stime of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after the last ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	fields := strings.Fields(s[i+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return (ut + st) / clockTicks, nil
}

// hostCPU reads the machine-wide CPU tick counters from /proc/stat: the
// total and the ticks the hypervisor stole from this machine's CPUs.
func hostCPU() (total, steal float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// peakRSSMB reads VmHWM (peak resident set) of a process in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fs := strings.Fields(line)
			if len(fs) >= 2 {
				kb, err := strconv.ParseFloat(fs[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrapeMetrics fetches and parses a Prometheus text page into sample name
// (labels included verbatim) -> value.
func scrapeMetrics(ctx context.Context, client *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics %s: status %d", url, resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// probeAll snapshots every fleet process.
func (f *fleet) probeAll(ctx context.Context, client *http.Client) ([]probe, error) {
	var out []probe
	for _, p := range f.procs() {
		m, err := scrapeMetrics(ctx, client, p.url)
		if err != nil {
			return nil, err
		}
		cpu, err := cpuSeconds(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out = append(out, probe{metrics: m, cpuSec: cpu})
	}
	return out, nil
}

// rssMB sums the fleet's peak resident sets.
func (f *fleet) rssMB() (float64, error) {
	total := 0.0
	for _, p := range f.procs() {
		mb, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// counterDelta sums, over the given processes, the change of every sample
// whose name (labels stripped) equals name and whose labels contain label
// (empty label matches all).
func counterDelta(before, after []probe, idx []int, name, label string) float64 {
	total := 0.0
	for _, i := range idx {
		for k, v := range after[i].metrics {
			base := k
			labels := ""
			if j := strings.IndexByte(k, '{'); j >= 0 {
				base, labels = k[:j], k[j:]
			}
			if base != name || !strings.Contains(labels, label) {
				continue
			}
			total += v - before[i].metrics[k]
		}
	}
	return total
}
