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

// serverProc is one surged serve subprocess.
type serverProc struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:port
	done chan struct{} // closed once Wait returned
	werr error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer execs surged with args (the "-addr" value is filled in) and
// waits until /healthz answers 200. The server's stderr goes to logPath.
func startServer(ctx context.Context, surged string, args func(addr string) []string, logPath string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(surged, args(addr)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting surged: %w", err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		p.werr = cmd.Wait()
		close(p.done)
	}()
	if err := p.waitHealthy(ctx, 30*time.Second); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// waitHealthy polls /healthz until it answers 200.
func (p *serverProc) waitHealthy(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	hc := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-p.done:
			return fmt.Errorf("surged exited during start-up: %v", p.werr)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("surged not healthy after %v (last error: %v)", limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rssPeakMB reads the server's peak resident set size (VmHWM).
func (p *serverProc) rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// kill stops the server with SIGKILL and waits for it to end.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-p.done
}

// stop asks the server to shut down gracefully and waits; it falls back to
// SIGKILL after ten seconds.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.kill()
	}
}
