package exec

import (
	"context"

	"ordxml/internal/govern"
	"ordxml/internal/sqldb/sqltypes"
)

// Operator-level governance: every leaf and pipeline-breaking operator holds
// a govTick built from the query's Env. step() polls the statement
// context once per govern.PollInterval rows, so cancellation and deadlines
// abort a scan mid-flight; charge() books materialized bytes against the
// query's shared memory accountant, so hash tables, sort buffers and result
// sets cannot silently outgrow the configured budget. Both are nil-safe and
// cost one branch per row on ungoverned queries.

// govTick is one operator's governance handle. Each operator instance gets
// its own row counter; the context and accountant behind it are shared
// query-wide.
type govTick struct {
	ctx  context.Context
	mem  *govern.Accountant
	rows int
}

// newTick returns the governance handle for an operator built under env, or
// nil when the query is ungoverned.
func (e Env) newTick() *govTick {
	if e.Ctx == nil && e.Mem == nil {
		return nil
	}
	return &govTick{ctx: e.Ctx, mem: e.Mem}
}

// step counts one row and polls the context every govern.PollInterval rows.
func (g *govTick) step() error {
	if g == nil || g.ctx == nil {
		return nil
	}
	g.rows++
	if g.rows%govern.PollInterval != 0 {
		return nil
	}
	return govern.CtxErr(g.ctx)
}

// charge books n bytes against the query's memory budget.
func (g *govTick) charge(n int64) error {
	if g == nil {
		return nil
	}
	return g.mem.Charge(n)
}

// chargeRow books one materialized row.
func (g *govTick) chargeRow(r sqltypes.Row) error {
	if g == nil || g.mem == nil {
		return nil
	}
	return g.mem.Charge(r.Memory())
}
