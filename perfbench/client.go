package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client speaks the daemon's HTTP/JSON surface.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   150 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8},
	}}
}

// do sends one request and decodes a 2xx JSON answer into out.
func (c *client) do(method, path string, payload []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

type idJSON struct {
	ID string `json:"id"`
}

type jobStatusJSON struct {
	ID          string    `json:"id"`
	Status      string    `json:"status"`
	Error       string    `json:"error"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
}

type blockJSON struct {
	BEL float64 `json:"bel"`
	SCR float64 `json:"scr"`
}

type jobResultJSON struct {
	Status string               `json:"status"`
	BEL    float64              `json:"bel"`
	SCR    float64              `json:"scr"`
	Blocks map[string]blockJSON `json:"blocks"`
	Deploy struct {
		PredictedSeconds float64 `json:"predicted_seconds"`
		ActualSeconds    float64 `json:"actual_seconds"`
		ProRataUSD       float64 `json:"prorata_usd"`
	} `json:"deploy"`
	Proxy *struct {
		Totals struct {
			Evaluated int `json:"evaluated"`
			Escalated int `json:"escalated"`
		} `json:"totals"`
	} `json:"proxy"`
}

type scrJSON struct {
	Interest            float64 `json:"interest"`
	InterestDownBinding bool    `json:"interest_down_binding"`
	Market              float64 `json:"market"`
	Life                float64 `json:"life"`
	Other               float64 `json:"other"`
	BSCR                float64 `json:"bscr"`
}

type campaignResultJSON struct {
	Status     string  `json:"status"`
	BaseBEL    float64 `json:"base_bel"`
	BaseVaRSCR float64 `json:"base_var_scr"`
	Modules    []struct {
		Module   string  `json:"module"`
		BEL      float64 `json:"bel"`
		DeltaBEL float64 `json:"delta_bel"`
	} `json:"modules"`
	SCR scrJSON `json:"scr"`
}

type campaignStatusJSON struct {
	Status      string          `json:"status"`
	SubmittedAt time.Time       `json:"submitted_at"`
	Jobs        []jobStatusJSON `json:"jobs"`
}

type healthJSON struct {
	KBSamples int `json:"kb_samples"`
}

// jobOutcome is what one closed-loop job request observed.
type jobOutcome struct {
	req       request
	submit    time.Duration // POST -> id
	latency   time.Duration // POST -> result
	status    jobStatusJSON
	result    jobResultJSON
	completed bool // the daemon finished the job (it entered the KB)
	err       error
}

// runJob submits one job, waits for its result and fetches its status.
func (c *client) runJob(req request) (out jobOutcome) {
	out.req = req
	start := time.Now()
	var id idJSON
	if out.err = c.do(http.MethodPost, "/v1/jobs", req.body.bytes(), &id); out.err != nil {
		return out
	}
	out.submit = time.Since(start)
	if out.err = c.do(http.MethodGet, "/v1/jobs/"+id.ID+"/result?wait=1", nil, &out.result); out.err != nil {
		return out
	}
	out.latency = time.Since(start)
	out.completed = out.result.Status == "done"
	if !out.completed {
		out.err = fmt.Errorf("job %s ended %q", id.ID, out.result.Status)
		return out
	}
	out.err = c.do(http.MethodGet, "/v1/jobs/"+id.ID, nil, &out.status)
	return out
}

// campaignOutcome is what one closed-loop campaign request observed.
type campaignOutcome struct {
	req     request
	submit  time.Duration
	latency time.Duration
	status  campaignStatusJSON
	result  campaignResultJSON
	jobs    []jobResultJSON // base job first, then the modules
	err     error
}

// runCampaign submits one campaign, waits for its result, then reads its job
// snapshots and every job's deploy record.
func (c *client) runCampaign(req request) (out campaignOutcome) {
	out.req = req
	start := time.Now()
	var id idJSON
	if out.err = c.do(http.MethodPost, "/v1/campaigns", req.body.bytes(), &id); out.err != nil {
		return out
	}
	out.submit = time.Since(start)
	if out.err = c.do(http.MethodGet, "/v1/campaigns/"+id.ID+"/result?wait=1", nil, &out.result); out.err != nil {
		return out
	}
	out.latency = time.Since(start)
	if out.result.Status != "done" {
		out.err = fmt.Errorf("campaign %s ended %q", id.ID, out.result.Status)
		return out
	}
	if out.err = c.do(http.MethodGet, "/v1/campaigns/"+id.ID, nil, &out.status); out.err != nil {
		return out
	}
	for _, j := range out.status.Jobs {
		var r jobResultJSON
		if out.err = c.do(http.MethodGet, "/v1/jobs/"+j.ID+"/result", nil, &r); out.err != nil {
			return out
		}
		out.jobs = append(out.jobs, r)
	}
	return out
}

func (c *client) health() (healthJSON, error) {
	var h healthJSON
	err := c.do(http.MethodGet, "/healthz", nil, &h)
	return h, err
}
