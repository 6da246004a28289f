package proto

import (
	"cosched/internal/cosched"
	"cosched/internal/job"
	"cosched/internal/sim"
)

// Exchanger is the one seam under the coordination vocabulary: a Request
// in, its Response out. A refusal by the remote manager comes back as a
// *RemoteError (with the Response that carried it); any other error means
// the exchange itself failed. Implemented once per layer — Client (a
// connection), Server (dispatch, no connection), FaultInjector (chaos) and
// peerlink.Link (resilience) — each wrapping the next, and spoken as typed
// calls through Caller.
type Exchanger interface {
	// PeerName returns the remote domain's name.
	PeerName() string
	// Exchange performs one request/response exchange. Seq is the
	// transport's to set; callers leave it zero.
	Exchange(req Request) (Response, error)
}

// Idempotent reports whether a request of this method may be replayed
// after an ambiguous failure (one that may have reached the peer): the
// probe, the three queries, reconcile_mates and ping are; try_start_mate
// and start_mate, which start jobs, are not — nor is a method this package
// does not know.
func Idempotent(method string) bool {
	switch method {
	case MethodPing, MethodProbeMate, MethodGetMateJob, MethodGetMateStatus, MethodCanStartMate, MethodReconcile:
		return true
	}
	return false
}

// Caller speaks the typed coordination vocabulary — cosched.Peer and its
// CoStarter, Prober and Reconciler extensions — over any Exchanger, one
// exchange per call. It is the vocabulary's only implementation besides
// resmgr.Manager: Client, FaultInjector and peerlink.Link embed it over
// themselves.
type Caller struct{ Exchanger }

var (
	_ cosched.Peer       = Caller{}
	_ cosched.CoStarter  = Caller{}
	_ cosched.Prober     = Caller{}
	_ cosched.Reconciler = Caller{}
)

// GetMateJob implements cosched.Peer.
func (c Caller) GetMateJob(id job.ID) (bool, error) {
	resp, err := c.Exchange(Request{Method: MethodGetMateJob, JobID: id})
	if err != nil {
		return false, err
	}
	return resp.Known, nil
}

// GetMateStatus implements cosched.Peer.
func (c Caller) GetMateStatus(id job.ID) (cosched.MateStatus, error) {
	resp, err := c.Exchange(Request{Method: MethodGetMateStatus, JobID: id})
	if err != nil {
		return cosched.StatusUnknown, err
	}
	return cosched.ParseMateStatus(resp.Status)
}

// CanStartMate implements cosched.Peer.
func (c Caller) CanStartMate(id job.ID) (bool, error) {
	resp, err := c.Exchange(Request{Method: MethodCanStartMate, JobID: id})
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// TryStartMate implements cosched.Peer.
func (c Caller) TryStartMate(id job.ID) (bool, error) {
	resp, err := c.Exchange(Request{Method: MethodTryStartMate, JobID: id})
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// StartMate implements cosched.Peer.
func (c Caller) StartMate(id job.ID) error {
	_, err := c.Exchange(Request{Method: MethodStartMate, JobID: id})
	return err
}

// ProbeMate implements cosched.Prober: one exchange for the three queries
// Run_Job makes about a mate.
func (c Caller) ProbeMate(id job.ID) (cosched.MateProbe, error) {
	resp, err := c.Exchange(Request{Method: MethodProbeMate, JobID: id})
	if err != nil {
		return cosched.MateProbe{}, err
	}
	st, err := cosched.ParseMateStatus(resp.Status)
	if err != nil {
		return cosched.MateProbe{}, err
	}
	return cosched.MateProbe{Known: resp.Known, Status: st, CanStart: resp.OK}, nil
}

// TryStartMateAt implements cosched.CoStarter: TryStartMate carrying the
// caller's proposed co-start instant.
func (c Caller) TryStartMateAt(id job.ID, at sim.Time) (bool, error) {
	resp, err := c.Exchange(Request{Method: MethodTryStartMate, JobID: id, At: &at})
	if err != nil {
		return false, err
	}
	return resp.OK, nil
}

// StartMateAt implements cosched.CoStarter.
func (c Caller) StartMateAt(id job.ID, at sim.Time) error {
	_, err := c.Exchange(Request{Method: MethodStartMate, JobID: id, At: &at})
	return err
}

// ReconcileMates implements cosched.Reconciler.
func (c Caller) ReconcileMates(from string, views []cosched.MateView) ([]cosched.MateView, error) {
	resp, err := c.Exchange(Request{Method: MethodReconcile, From: from, Views: ViewsToWire(views)})
	if err != nil {
		return nil, err
	}
	return ViewsFromWire(resp.Views)
}
