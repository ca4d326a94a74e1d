package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"comfedsv/internal/api"
	"comfedsv/internal/dispatch"
	"comfedsv/internal/persist"
	"comfedsv/internal/service"
)

// daemon is an in-process comfedsvd: the same service.Manager + api.Server
// wiring cmd/comfedsvd uses, with a job store and a shared runs-dir, served
// on a loopback listener. With dispatch on it also runs one
// cmd/comfedsv-worker child process against the same runs-dir.
type daemon struct {
	mgr    *service.Manager
	coord  *dispatch.Coordinator
	srv    *http.Server
	served chan error
	base   string
	worker *exec.Cmd
}

// startDaemon boots a daemon over dir/store and dir/runs. A restart is a
// stop followed by another startDaemon over the same dir.
func startDaemon(dir string, withWorker bool, workerBin string) (*daemon, error) {
	store, err := persist.NewJobStore(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	runs, err := persist.NewRunStore(filepath.Join(dir, "runs"))
	if err != nil {
		return nil, err
	}
	cfg := service.Config{Store: store, RunStore: runs}
	d := &daemon{served: make(chan error, 1)}
	if withWorker {
		d.coord = dispatch.NewCoordinator(dispatch.Config{LeaseTTL: time.Minute, WorkerTTL: 30 * time.Second})
		cfg.Dispatcher = d.coord
	}
	if d.mgr, err = service.NewManager(cfg); err != nil {
		return nil, err
	}
	srv := api.NewServer(d.mgr)
	if d.coord != nil {
		srv.SetDispatcher(d.coord)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.shutdownManager()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { d.served <- d.srv.Serve(ln) }()
	if withWorker {
		if err := d.startWorker(workerBin, filepath.Join(dir, "runs")); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// startWorker spawns the comfedsv-worker child and waits until the
// coordinator counts it live.
func (d *daemon) startWorker(bin, runsDir string) error {
	cmd := exec.Command(bin, "-coordinator", d.base, "-runs-dir", runsDir,
		"-id", "perfbench-worker", "-parallelism", "1", "-poll", "2s", "-log-level", "warn")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// The kernel kills the worker if the benchmark dies without stop.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting worker %s: %w", bin, err)
	}
	d.worker = cmd
	deadline := time.Now().Add(20 * time.Second)
	for d.coord.Stats().WorkersLive < 1 {
		if time.Now().After(deadline) {
			return errors.New("worker did not register within 20s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// stop ends the worker child (it deregisters on SIGTERM), closes the
// coordinator, drains HTTP, and shuts the manager down, waiting for each.
func (d *daemon) stop() error {
	var errs []error
	if d.worker != nil {
		_ = d.worker.Process.Signal(syscall.SIGTERM)
		if err := d.worker.Wait(); err != nil {
			errs = append(errs, fmt.Errorf("worker exit: %w", err))
		}
		d.worker = nil
	}
	if d.coord != nil {
		d.coord.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		errs = append(errs, err)
	}
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, d.shutdownManager())
	return errors.Join(errs...)
}

func (d *daemon) shutdownManager() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return d.mgr.Shutdown(ctx)
}

// workerCPU returns the worker child's user+sys CPU seconds so far, read
// from /proc; 0 when no worker runs.
func (d *daemon) workerCPU() float64 {
	if d.worker == nil {
		return 0
	}
	return procCPU(d.worker.Process.Pid)
}

// workerRSS returns the worker child's peak resident set in MiB.
func (d *daemon) workerRSS() float64 {
	if d.worker == nil {
		return 0
	}
	return procPeakRSS(d.worker.Process.Pid)
}
