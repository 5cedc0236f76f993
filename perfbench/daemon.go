package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one disard process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan error
}

// daemonSeed is the deployer root seed every boot uses.
const daemonSeed = 2016

// live holds the daemons currently running, so the watchdog can kill them.
var live = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: map[*daemon]bool{}}

func track(d *daemon, running bool) {
	live.Lock()
	defer live.Unlock()
	if running {
		live.set[d] = true
	} else {
		delete(live.set, d)
	}
}

// startWatchdog ends the process with exit code 1 — after killing the live
// daemons and waiting for them — when the run outlives limit or the
// benchmark is interrupted.
func startWatchdog(limit time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-time.After(limit):
			fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", limit)
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", s)
		}
		live.Lock()
		for d := range live.set {
			_ = d.cmd.Process.Kill()
			select {
			case <-d.done:
			case <-time.After(5 * time.Second):
			}
		}
		os.Exit(1)
	}()
}

// bootDaemon copies the warm knowledge base to a fresh file (the daemon
// rewrites -kb at shutdown, and retrain cost grows with KB size, so a reused
// file would drift run to run), starts disard on it and returns once
// /healthz answers, with the time from exec to that first answer.
func bootDaemon(ctx context.Context, bin, dir, warmKB string, workers, n int) (*daemon, time.Duration, error) {
	kbPath := filepath.Join(dir, fmt.Sprintf("kb-boot%d.json", n))
	if err := copyFile(warmKB, kbPath); err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("disard-boot%d.log", n)))
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-seed", strconv.Itoa(daemonSeed),
		"-workers", strconv.Itoa(workers), "-kb", kbPath)
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start disard: %w", err)
	}
	track(d, true)
	go func() { d.done <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case err := <-d.done:
			track(d, false)
			logf.Close()
			return nil, 0, fmt.Errorf("disard exited during boot: %v (log %s)", err, logf.Name())
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, 0, errors.New("disard did not answer /healthz within 60s")
		}
	}
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop interrupts the daemon (graceful shutdown saves the KB), waits for it
// to exit, and kills it if it has not within 20 s.
func (d *daemon) stop() error {
	defer d.log.Close()
	defer track(d, false)
	_ = d.cmd.Process.Signal(syscall.SIGINT)
	select {
	case err := <-d.done:
		return err
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("disard ignored SIGINT; killed")
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
