package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"jaaru/internal/core"
	"jaaru/internal/dist"
	"jaaru/internal/netsim"
)

const (
	// fleetWorkers is the number of workers serving the coordinator.
	fleetWorkers = 2
	// idlePollMs is the coordinator's poll-again hint to idle workers
	// (dist.Config.RetryMs, 200 by default): a worker that finds no work
	// sleeps this long before asking again, so it bounds how long a new job
	// waits to be picked up.
	idlePollMs = 1
	// statusPoll is how long the client sleeps between GET /v1/jobs/{id}
	// polls, so a job is seen done up to this long after it finished.
	statusPoll = 500 * time.Microsecond
	// jobTimeout ends the run when the fleet has not finished a job in this
	// long, instead of letting a fleet that lost its workers hang it.
	jobTimeout = 30 * time.Second
)

// fleet is a long-lived coordinator with its workers over the in-process
// netsim fabric, and the client that submits jobs to it.
type fleet struct {
	fab     *netsim.Fabric
	client  dist.Doer
	workers []*dist.Worker
	wg      sync.WaitGroup
	errs    []error
}

// startFleet starts the coordinator and workers; progs resolves every spec
// the client may submit. With a tracer the coordinator's handler, the
// workers' transports, idle sleeps and guest callbacks are wrapped in spans.
func startFleet(progs map[dist.ProgSpec]core.Program, tr *tracer) (*fleet, error) {
	resolve := func(s dist.ProgSpec) (core.Program, error) {
		p, ok := progs[s]
		if !ok {
			return core.Program{}, fmt.Errorf("unknown program %+v", s)
		}
		return p, nil
	}
	coord, err := dist.NewCoordinator(dist.Config{Resolve: resolve, RetryMs: idlePollMs})
	if err != nil {
		return nil, err
	}
	var h http.Handler = coord
	if tr != nil {
		h = tracedHandler{coord, tr}
	}
	f := &fleet{fab: netsim.NewFabric(h), errs: make([]error, fleetWorkers)}
	f.client = f.fab.Client("client")
	for i := range fleetWorkers {
		name := fmt.Sprintf("w%d", i+1)
		cfg := dist.WorkerConfig{Name: name, BaseURL: "http://coordinator", Client: f.fab.Client(name), Resolve: resolve}
		if tr != nil {
			cfg.Client = tracedDoer{cfg.Client, tr}
			cfg.Sleep = func(d time.Duration) {
				defer tr.end(tr.begin("dist.worker_idle", -1, -1))
				time.Sleep(d)
			}
			cfg.Resolve = func(s dist.ProgSpec) (core.Program, error) {
				p, err := resolve(s)
				return tr.wrapProgram(p, "dist.worker_context", func() (int, int) { return -1, -1 }), err
			}
		}
		w, err := dist.NewWorker(cfg)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.errs[i] = w.Run()
		}()
	}
	return f, nil
}

// stop drains every worker and waits for it to exit. Stopping twice is
// harmless.
func (f *fleet) stop() error {
	for _, w := range f.workers {
		w.Drain()
	}
	f.wg.Wait()
	return errors.Join(f.errs...)
}

// run submits one job and polls its status until the coordinator reports it
// done.
func (f *fleet) run(spec dist.ProgSpec, opts core.Options) (*core.Result, error) {
	var sub dist.JobResponse
	if err := f.call("POST", "/v1/jobs", dist.JobRequest{Spec: spec, Opts: opts}, &sub); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(jobTimeout)
	for time.Now().Before(deadline) {
		time.Sleep(statusPoll)
		var st dist.JobStatus
		if err := f.call("GET", "/v1/jobs/"+sub.ID, nil, &st); err != nil {
			return nil, err
		}
		if st.State == dist.JobDone {
			return st.Result, nil
		}
	}
	return nil, fmt.Errorf("job %s not done after %v", sub.ID, jobTimeout)
}

func (f *fleet) call(method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, "http://coordinator"+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}
