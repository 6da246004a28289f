package metrics

import (
	"cosched/internal/job"
	"cosched/internal/sim"
)

// collector is the fold behind Collect: jobs are added one at a time and
// the report is rendered at the end.
//
// add order is the float-accumulation order. For reproducible reports, feed
// jobs in registration order (Manager.Jobs()).
type collector struct {
	r                 DomainReport
	waits, sds, syncs Accumulator
	lostNodeSec       int64
	busyNodeSec       int64
}

// add folds one job into the report-in-progress.
func (c *collector) add(j *job.Job) {
	c.r.TotalJobs++
	c.r.Yields += j.YieldCount
	c.r.Holds += j.HoldCount
	c.lostNodeSec += j.HeldNodeSeconds
	if j.State == job.Cancelled {
		c.r.Cancelled++
		return
	}
	if j.State != job.Completed {
		c.r.Stuck++
		return
	}
	c.r.Completed++
	c.waits.Add(float64(j.WaitTime()) / 60)
	c.sds.Add(j.Slowdown())
	c.busyNodeSec += j.NodeSeconds()
	if j.Paired() {
		c.r.PairedCount++
		c.syncs.Add(float64(j.SyncTime()) / 60)
	}
}

// report renders the folded jobs into a DomainReport. span is the simulated
// period used for loss/utilization rates; totalNodes the pool size. It does
// not consume the fold.
func (c *collector) report(totalNodes int, span sim.Duration) DomainReport {
	r := c.r
	r.Span = span
	r.Wait = c.waits.Summary()
	r.Slowdown = c.sds.Summary()
	r.PairedSync = c.syncs.Summary()
	r.LostNodeHours = float64(c.lostNodeSec) / 3600
	if span > 0 && totalNodes > 0 {
		capacity := float64(totalNodes) * float64(span)
		r.LostUtilization = float64(c.lostNodeSec) / capacity
		r.Utilization = float64(c.busyNodeSec) / capacity
	}
	return r
}
