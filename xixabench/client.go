package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// daemon is one xixad process the benchmark launched.
type daemon struct {
	cmd  *exec.Cmd
	addr string

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports

	exited chan struct{}
	err    error
}

var servingRE = regexp.MustCompile(`serving .*on (\S+) \(tune`)

// startDaemon launches xixad listening on a free loopback port and
// returns once it accepts connections.
func startDaemon(bin string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-scale", strconv.Itoa(Scale), "-tune-interval", "0"}, args...)
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	// The daemon dies with the benchmark, even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start xixad: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if m := servingRE.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("xixad exited before serving: %v\n%s", d.err, d.logTail())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("xixad did not start serving within 60s")
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuTime is the daemon's CPU time so far, all threads, read from
// its process CPU clock (clock_gettime on the clock ID
// clock_getcpuclockid(3) would return), to the nanosecond. Unlike
// wall time it leaves out time the hypervisor stole.
func (d *daemon) cpuTime() (time.Duration, error) {
	clock := int32(^d.cmd.Process.Pid<<3 | 2) // CPUCLOCK_SCHED of the whole process
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("xixad CPU clock: %w", e)
	}
	return time.Duration(ts.Nano()), nil
}

// stop asks xixad to shut down (SIGTERM: it checkpoints in durable
// mode) and waits for it, killing it if it takes longer than 30s.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("xixad ignored SIGTERM for 30s; killed")
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// conn is one client session on xixad's line protocol.
type conn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cn := &conn{c: c, r: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriter(c)}
	greet, err := cn.r.ReadString('\n')
	if err != nil || !strings.HasPrefix(greet, "OK ") {
		c.Close()
		return nil, fmt.Errorf("xixad greeting %q: %v", greet, err)
	}
	return cn, nil
}

// reply is the final line of one response: "OK ..." or "ERR ...", with
// the result count parsed from a statement's "OK N results" summary.
type reply struct {
	ok    bool
	line  string
	count int
	body  []string // the "| " lines, when collected
}

var resultsRE = regexp.MustCompile(`^OK (\d+) results`)

// do sends one line and reads its response. keepBody collects the
// "| " lines (meta commands); statements discard them.
func (c *conn) do(line string, keepBody bool) (reply, error) {
	if _, err := c.w.WriteString(line + "\n"); err != nil {
		return reply{}, err
	}
	if err := c.w.Flush(); err != nil {
		return reply{}, err
	}
	var rep reply
	for {
		s, err := c.r.ReadString('\n')
		if err != nil {
			return rep, fmt.Errorf("read reply to %.60q: %w", line, err)
		}
		s = strings.TrimRight(s, "\n")
		switch {
		case strings.HasPrefix(s, "| "):
			if keepBody {
				rep.body = append(rep.body, s[2:])
			}
			continue
		case strings.HasPrefix(s, "OK"):
			rep.ok, rep.line, rep.count = true, s, -1
			if m := resultsRE.FindStringSubmatch(s); m != nil {
				rep.count, _ = strconv.Atoi(m[1])
			}
			return rep, nil
		case strings.HasPrefix(s, "ERR"):
			rep.line = s
			return rep, nil
		default:
			return rep, fmt.Errorf("unexpected reply line %q", s)
		}
	}
}

func (c *conn) close() {
	_, _ = c.do(`\quit`, false)
	c.c.Close()
}
