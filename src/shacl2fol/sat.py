"""Small CDCL SAT solver with two-watched-literal propagation.

Clauses are tuples of nonzero integers (negative = negated variable), as
in DIMACS.  Implements first-UIP clause learning with backjumping,
activity-based branching from a lazy order heap (as in MiniSat, Eén &
Sörensson, SAT 2003), saved phases, and geometric restarts — enough to
handle the groundings the built-in prover produces.  `Clock`, that
prover's one wall clock, and `TimeBudgetExceeded` are defined in `errors`
and re-exported here; `solve` reports its work to the clock its caller
hands it.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional

from .errors import Clock, TimeBudgetExceeded


def solve(
    clauses: Iterable[tuple[int, ...]],
    clock: Clock = Clock(),
) -> Optional[dict[int, bool]]:
    """Return a satisfying assignment (may omit don't-care vars) or None.

    Raises TimeBudgetExceeded once `clock` passes its deadline; the
    default clock has none.
    """
    cls: list[list[int]] = []
    units: list[int] = []
    activity: dict[int, float] = {}  # every variable's, for branching
    clock.check()  # once before the input, then per 4,096 literals read
    for c in clauses:
        clock.tick(len(c))
        lits = dict.fromkeys(c)  # the clause's literals, once each, in order
        activity.update(dict.fromkeys(map(abs, lits), 0.0))
        if any(-lit in lits for lit in lits):
            continue
        c = list(lits)
        if not c:
            return None
        if len(c) == 1:
            units.append(c[0])
            continue
        cls.append(c)

    watches: dict[int, list[int]] = {}
    for idx, c in enumerate(cls):
        watches.setdefault(c[0], []).append(idx)
        watches.setdefault(c[1], []).append(idx)

    assign: dict[int, bool] = {}
    level: dict[int, int] = {}
    reason: dict[int, Optional[int]] = {}
    trail: list[int] = []
    trail_lim: list[int] = []
    qhead = 0
    phase: dict[int, bool] = {}

    for c in cls:
        for lit in c:
            activity[abs(lit)] += 1.0
    var_inc = 1.0
    # the decision order: (-activity, var) entries, lowest variable first
    # on a tie; an entry is stale once its variable is assigned or bumped
    order = [(-a, v) for v, a in activity.items()]
    heapq.heapify(order)

    def value(lit: int) -> Optional[bool]:
        v = assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def enqueue(lit: int, why: Optional[int]) -> bool:
        v = value(lit)
        if v is not None:
            return v
        var = abs(lit)
        assign[var] = lit > 0
        level[var] = len(trail_lim)
        reason[var] = why
        trail.append(lit)
        return True

    def propagate() -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        nonlocal qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            falsified = -p
            ws = watches.get(falsified)
            if not ws:
                continue
            new_ws: list[int] = []
            for pos, ci in enumerate(ws):
                c = cls[ci]
                if c[0] == falsified:
                    c[0], c[1] = c[1], c[0]
                if value(c[0]) is True:
                    new_ws.append(ci)
                    continue
                moved = False
                for k in range(2, len(c)):
                    if value(c[k]) is not False:
                        c[1], c[k] = c[k], c[1]
                        watches.setdefault(c[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                new_ws.append(ci)
                if value(c[0]) is False:
                    new_ws.extend(ws[pos + 1:])
                    watches[falsified] = new_ws
                    qhead = len(trail)
                    return ci
                enqueue(c[0], ci)
            watches[falsified] = new_ws
        return None

    def bump(var: int) -> None:
        nonlocal var_inc
        activity[var] += var_inc
        if activity[var] > 1e100:
            for v in activity:
                activity[v] *= 1e-100
            var_inc *= 1e-100
            order[:] = [(-a, v) for v, a in activity.items() if v not in assign]
            heapq.heapify(order)
        elif var not in assign:
            heapq.heappush(order, (-activity[var], var))

    def backtrack(to_level: int) -> None:
        nonlocal qhead
        while len(trail_lim) > to_level:
            mark = trail_lim.pop()
            while len(trail) > mark:
                lit = trail.pop()
                var = abs(lit)
                phase[var] = assign[var]
                del assign[var], level[var], reason[var]
                heapq.heappush(order, (-activity[var], var))
        qhead = len(trail)

    def analyze(confl: int) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to backjump to."""
        learnt: list[int] = []
        seen: set[int] = set()
        counter = 0
        p: Optional[int] = None
        idx = len(trail) - 1
        current = len(trail_lim)
        reason_clause = cls[confl]
        while True:
            for q in reason_clause:
                if p is not None and q == p:
                    continue
                var = abs(q)
                if var in seen or level[var] == 0:
                    continue
                seen.add(var)
                bump(var)
                if level[var] == current:
                    counter += 1
                else:
                    learnt.append(q)
            while abs(trail[idx]) not in seen:
                idx -= 1
            p = trail[idx]
            var = abs(p)
            seen.discard(var)
            counter -= 1
            if counter == 0:
                break
            reason_clause = cls[reason[var]]
            idx -= 1
        learnt.insert(0, -p)
        if len(learnt) == 1:
            return learnt, 0
        # second-highest decision level among the learned literals
        jump = max(level[abs(q)] for q in learnt[1:])
        hi = max(range(1, len(learnt)), key=lambda i: level[abs(learnt[i])])
        learnt[1], learnt[hi] = learnt[hi], learnt[1]
        return learnt, jump

    for u in units:
        if not enqueue(u, None):
            return None
    if propagate() is not None:
        return None

    conflicts = 0
    restart_limit = 100.0
    since_restart = 0
    while True:
        confl = propagate()
        if confl is not None:
            conflicts += 1
            since_restart += 1
            if conflicts % 64 == 0:
                clock.check()
            if not trail_lim:
                return None
            learnt, jump = analyze(confl)
            var_inc /= 0.95
            backtrack(jump)
            if len(learnt) == 1:
                if not enqueue(learnt[0], None):
                    return None
            else:
                cls.append(learnt)
                ci = len(cls) - 1
                watches.setdefault(learnt[0], []).append(ci)
                watches.setdefault(learnt[1], []).append(ci)
                enqueue(learnt[0], ci)
            continue
        if since_restart >= restart_limit:
            since_restart = 0
            restart_limit *= 1.5
            backtrack(0)
            continue
        clock.check()  # a search without conflicts reads the clock here
        while order and (order[0][1] in assign or -order[0][0] != activity[order[0][1]]):
            heapq.heappop(order)
        if not order:
            return dict(assign)
        var = heapq.heappop(order)[1]
        trail_lim.append(len(trail))
        enqueue(var if phase.get(var, False) else -var, None)
