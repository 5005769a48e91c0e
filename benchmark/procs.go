package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Serving tiers under test. Each is real tindserve processes started with
// nothing but the mode flags, -corpus, -wal/-snapshot and -addr: every
// other knob (GOMAXPROCS, -max-in-flight, timeouts) stays at its default.
const (
	tierMono      = "mono"       // 1 × tindserve -corpus
	tierShards    = "shards"     // 1 × tindserve -shards 4
	tierShardsWAL = "shards_wal" // 1 × tindserve -shards 4 -wal -snapshot
	tierRouter    = "router"     // 2 × -shard-server + 1 × -router
)

const (
	inProcShards = 4
	routerShards = 2
	readyTimeout = 60 * time.Second
)

// proc is one running tindserve.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string
	log  string
	done chan struct{} // closed once Wait has returned
}

// startProc launches tindserve in its own process group, so the whole
// group can be killed on any exit path, with stderr captured to a file.
func startProc(bin, dir, name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, name+".log")
	logF, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logF.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logF, logF
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, addr: addr, log: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is read from ProcessState
		close(p.done)
	}()
	trackProc(p)
	return p, nil
}

// freeAddr picks a free loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func (p *proc) url() string { return "http://" + p.addr }

// waitReady polls /readyz until 200, failing fast with the log tail if
// the process dies or the deadline passes.
func (p *proc) waitReady(client *http.Client, deadline time.Time) error {
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before ready: %v\n%s", p.name, p.cmd.ProcessState, p.logTail())
		default:
		}
		resp, err := client.Get(p.url() + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v\n%s", p.name, readyTimeout, p.logTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

func (p *proc) logTail() string {
	buf, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	lines := bytes.Split(bytes.TrimSpace(buf), []byte("\n"))
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return "--- " + p.name + " log tail ---\n" + string(bytes.Join(lines, []byte("\n")))
}

// kill SIGKILLs the process group and waits for the process to be reaped.
func (p *proc) kill() {
	if p.alive() {
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) //nolint:errcheck // best effort; the wait below is the check
	}
	<-p.done
	untrackProc(p)
}

// peakRSSMB reads the process's resident-set high-water mark.
func (p *proc) peakRSSMB() float64 {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuMS reads utime+stime of the process in milliseconds (USER_HZ = 100
// on Linux, the kernel ABI value, independent of the scheduler tick).
func (p *proc) cpuMS() float64 {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the full line, i.e. 12 and 13 after the ")".
	s := string(buf)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 10
}

// deployment is one booted tier: its processes and the URL clients use.
type deployment struct {
	procs  []*proc
	front  *proc // what the clients talk to (the router, or the one server)
	setupS float64
	wal    string // WAL path on tierShardsWAL
}

// deploy boots a tier from the corpus file and waits until every process
// answers /readyz 200. setupS is exec of the first process to the last
// ready. runDir receives logs, WAL and snapshot; it must be fresh per
// boot so a previous boot's WAL is not replayed.
func deploy(bin, tier, corpus, runDir string) (*deployment, error) {
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	d := &deployment{}
	t0 := time.Now()
	deadline := t0.Add(readyTimeout)
	start := func(name string, args ...string) (*proc, error) {
		p, err := startProc(bin, runDir, name, append([]string{"-corpus", corpus}, args...)...)
		if err == nil {
			d.procs = append(d.procs, p)
		}
		return p, err
	}
	fail := func(err error) (*deployment, error) {
		d.stop()
		return nil, err
	}
	// front is the process the clients talk to: the one server, or the
	// router once the shard servers behind it answer.
	front, frontArgs := "server", []string(nil)
	switch tier {
	case tierMono:
	case tierShards, tierShardsWAL:
		frontArgs = []string{"-shards", strconv.Itoa(inProcShards)}
		if tier == tierShardsWAL {
			d.wal = filepath.Join(runDir, "ingest.wal")
			frontArgs = append(frontArgs, "-wal", d.wal, "-snapshot", filepath.Join(runDir, "snapshot"))
		}
	case tierRouter:
		urls := make([]string, routerShards)
		for s := range urls {
			p, err := start(fmt.Sprintf("shard%d", s),
				"-shards", strconv.Itoa(routerShards), "-shard-server", "-shard-id", strconv.Itoa(s))
			if err != nil {
				return fail(err)
			}
			urls[s] = p.url()
		}
		// The router validates the topology at start-up, so it can only
		// be launched once every shard server answers.
		for _, p := range d.procs {
			if err := p.waitReady(client, deadline); err != nil {
				return fail(err)
			}
		}
		front, frontArgs = "router", []string{"-router", strings.Join(urls, ";")}
	default:
		return nil, fmt.Errorf("unknown tier %q", tier)
	}
	p, err := start(front, frontArgs...)
	if err != nil {
		return fail(err)
	}
	if err := p.waitReady(client, deadline); err != nil {
		return fail(err)
	}
	d.front = p
	d.setupS = time.Since(t0).Seconds()
	return d, nil
}

// checkAlive fails with the log tail if any process of the tier died.
func (d *deployment) checkAlive() error {
	for _, p := range d.procs {
		if !p.alive() {
			return fmt.Errorf("%s died: %v\n%s", p.name, p.cmd.ProcessState, p.logTail())
		}
	}
	return nil
}

// peakRSSMB sums the resident high-water marks of the tier's processes.
func (d *deployment) peakRSSMB() float64 {
	var sum float64
	for _, p := range d.procs {
		sum += p.peakRSSMB()
	}
	return sum
}

// cpuMS reads the CPU time of each of the tier's processes.
func (d *deployment) cpuMS() []float64 {
	out := make([]float64, len(d.procs))
	for i, p := range d.procs {
		out[i] = p.cpuMS()
	}
	return out
}

// stop kills every process of the tier and waits for each to end.
func (d *deployment) stop() {
	for _, p := range d.procs {
		p.kill()
	}
}

// Live processes are tracked globally so that a signal or a fatal error
// anywhere still kills every process group before the benchmark exits.
var (
	liveMu sync.Mutex
	live   = map[*proc]struct{}{}
)

func trackProc(p *proc) {
	liveMu.Lock()
	live[p] = struct{}{}
	liveMu.Unlock()
}

func untrackProc(p *proc) {
	liveMu.Lock()
	delete(live, p)
	liveMu.Unlock()
}

func killAllProcs() {
	liveMu.Lock()
	ps := make([]*proc, 0, len(live))
	for p := range live {
		ps = append(ps, p)
	}
	liveMu.Unlock()
	for _, p := range ps {
		p.kill()
	}
}
