package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one dexpanderd process on a loopback port. It runs with
// default flags except -addr and -trace-spans 0 (plus -peers on a
// count-dist coordinator); its standard streams are discarded, so the
// per-query log line stays in the measured path.
type daemon struct {
	base string
	cmd  *exec.Cmd
}

// fleet is the set of daemons one run talks to; fleet[0] is the one the
// load generator sends to (the coordinator when there are replicas).
type fleet []*daemon

// startFleet starts replicas replica daemons and then the front daemon,
// pointing the front daemon at the replicas, and waits until every one
// answers /healthz.
func startFleet(ctx context.Context, bin string, replicas int) (fleet, error) {
	var f fleet
	var peers []string
	for i := 0; i < replicas; i++ {
		d, err := startDaemon(bin)
		if err != nil {
			f.stop()
			return nil, err
		}
		f = append(f, d)
		peers = append(peers, d.base)
	}
	var extra []string
	if len(peers) > 0 {
		extra = []string{"-peers", strings.Join(peers, ",")}
	}
	front, err := startDaemon(bin, extra...)
	if err != nil {
		f.stop()
		return nil, err
	}
	f = append(fleet{front}, f...)
	for _, d := range f {
		if err := d.waitReady(ctx); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func startDaemon(bin string, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-trace-spans", "0"}, extra...)...)
	// Kill the daemon if this process dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dexpanderd: %w", err)
	}
	return &daemon{base: "http://" + addr, cmd: cmd}, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("dexpanderd at %s not ready: %v", d.base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// peakRSSMB sums the fleet's peak resident sets.
func (f fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, d := range f {
		mb, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// stop terminates every daemon (SIGTERM, then SIGKILL after a grace
// period) and waits until each has exited.
func (f fleet) stop() {
	for _, d := range f {
		d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	}
	for _, d := range f {
		done := make(chan struct{})
		go func() {
			d.cmd.Wait() //nolint:errcheck // exit status of a stopped daemon carries nothing
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			d.cmd.Process.Kill() //nolint:errcheck // best effort; Wait below reaps it
			<-done
		}
	}
}
