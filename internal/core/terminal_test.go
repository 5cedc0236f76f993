package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestResultImpliesTerminalStatus is the cross-view consistency property:
// once Result or CampaignResult returns, every job it reports on is
// terminal in Status/CampaignStatus — under cancellation, job failure and
// budget rejection alike. A client that has read a result must never poll
// and find the work still running.
func TestResultImpliesTerminalStatus(t *testing.T) {
	ctx := context.Background()
	// failing: a degree-6 polynomial proxy cannot be calibrated on 16
	// training points, so every job fails mid-run. overBudget: an untrained
	// deployer cannot price a job up front, so the budget rejects it at
	// deploy time, after it was queued.
	failing := func(s SimulationSpec) SimulationSpec {
		s.Proxy = &ProxySpec{TrainOuter: 16, Model: "poly", Degree: 6}
		return s
	}
	overBudget := func(s SimulationSpec) SimulationSpec {
		s.Constraints.MaxCost = 1e-9
		return s
	}
	slow := serviceSpec("slow", 100000, 1)
	cancelJob := func(s *Service, j JobID, _ CampaignID) error { return s.Cancel(j) }
	cancelCampaign := func(s *Service, _ JobID, c CampaignID) error { return s.CancelCampaign(c) }
	cases := []struct {
		name     string
		campaign bool
		spec     SimulationSpec
		// cancel runs after submission with the (base) job and campaign IDs.
		cancel  func(*Service, JobID, CampaignID) error
		wantErr error // nil: any error
	}{
		{"job/cancel", false, slow, cancelJob, context.Canceled},
		{"job/failure", false, failing(serviceSpec("fail", 40, 2)), nil, nil},
		{"job/budget", false, overBudget(serviceSpec("budget", 40, 3)), nil, ErrBudgetRejected},
		{"campaign/cancel", true, slow, cancelCampaign, context.Canceled},
		// Only the base job is cancelled, while still queued behind a
		// blocker: the modules then run, and the result must wait for them
		// before reporting the base's error.
		{"campaign/base-cancel", true, serviceSpec("cbase", 400, 5), cancelJob, context.Canceled},
		{"campaign/failure", true, failing(serviceSpec("cfail", 40, 6)), nil, nil},
		{"campaign/budget", true, overBudget(serviceSpec("cbudget", 40, 7)), nil, ErrBudgetRejected},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDeployer(97)
			if err != nil {
				t.Fatal(err)
			}
			svc, err := NewService(d, WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			// The blocker holds the only worker until every cancel landed.
			blocker, err := svc.Submit(ctx, slow)
			if err != nil {
				t.Fatal(err)
			}
			var job JobID
			var camp CampaignID
			if tc.campaign {
				if camp, err = svc.SubmitCampaign(ctx, CampaignSpec{Base: tc.spec}); err == nil {
					var snap CampaignSnapshot
					snap, err = svc.CampaignStatus(camp)
					job = snap.Jobs[0].ID
				}
			} else {
				job, err = svc.Submit(ctx, tc.spec)
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.cancel != nil {
				if err := tc.cancel(svc, job, camp); err != nil {
					t.Fatal(err)
				}
			}
			if err := svc.Cancel(blocker); err != nil {
				t.Fatal(err)
			}

			jobs := make([]JobSnapshot, 1)
			if tc.campaign {
				_, err = svc.CampaignResult(ctx, camp)
				snap, serr := svc.CampaignStatus(camp)
				if serr != nil {
					t.Fatal(serr)
				}
				if !snap.Status.Terminal() {
					t.Fatalf("CampaignResult returned (%v) while the campaign is %s", err, snap.Status)
				}
				jobs = snap.Jobs
			} else {
				_, err = svc.Result(ctx, job)
				var serr error
				if jobs[0], serr = svc.Status(job); serr != nil {
					t.Fatal(serr)
				}
			}
			for _, j := range jobs {
				if !j.Status.Terminal() {
					t.Fatalf("result returned (%v) while job %s is %s", err, j.ID, j.Status)
				}
			}
			if err == nil || tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("result error = %v, want %v", err, tc.wantErr)
			}
		})
	}

	t.Run("campaign/caller-deadline", func(t *testing.T) {
		// The caller's own deadline still bounds the wait.
		d, err := NewDeployer(97)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(d, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		id, err := svc.SubmitCampaign(ctx, CampaignSpec{Base: slow})
		if err != nil {
			t.Fatal(err)
		}
		wctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		defer cancel()
		if _, err := svc.CampaignResult(wctx, id); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("CampaignResult past the caller deadline = %v, want DeadlineExceeded", err)
		}
	})
}
