"""Layer spans recorded around calls into the stack's public functions.

The program itself is not changed: :func:`instrument` swaps wrappers in
for the public functions and methods of each layer for the duration of
one traced pass and restores the originals afterwards. Each wrapper
opens a span (name, start, end, parent, trial id) on entry and closes it
on exit. A span's self time is its duration minus that of its direct
children, so a nested call (``Cache.read_line`` of an L1 calling the
L2's) is counted once.

Coarse spans are kept in memory and written out by :meth:`Tracer.dump`.
Spans around calls made once per simulated warp instruction or memory
access (``SM.execute`` and the cache methods) are aggregated into their
parent and into per-name totals instead of being kept one by one.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

_MISSING = object()

#: The exact simulator counts kept per campaign cell. They do not depend
#: on host speed, so they must repeat across runs at one seed.
COUNT_KEYS = ("launches", "cycles", "warp_instructions", "l1d_accesses",
              "l2_accesses", "trial_cycles", "prefix_launch_cycles",
              "uarch_trial_cycles", "prefix_cycle_cycles")


class Tracer:
    """In-memory span recorder for one traced pass (single thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: Recorded spans: ``[name, start, end, self_s, parent, trial]``;
        #: ``parent`` is the index of the enclosing recorded span.
        self.spans: list[list] = []
        self._stack: list[list] = []  # open frames: [name, start, child_s, index]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.trial: int | None = None
        self._trial_frame: list | None = None
        self._trials = 0
        #: Exact counts per campaign cell (see :data:`COUNT_KEYS`).
        self.counts: dict[str, Counter] = {}
        self._cell: Counter | None = None
        self._prefix: list[int] = []
        self._plan = None
        self._trial_cycles = 0
        self._compiled: dict[int, tuple] = {}
        self.compile_reuse = 0

    # ------------------------------------------------------------ spans
    def open(self, name: str, record: bool = True) -> list:
        index = None
        if record:
            parent = next((f[3] for f in reversed(self._stack)
                           if f[3] is not None), None)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, 0.0, parent, self.trial])
        frame = [name, self.clock(), 0.0, index]
        if index is not None:
            self.spans[index][1] = frame[1]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        """Close ``frame`` and any frame still open above it (a span left
        open by an exception, such as a trial whose campaign raised)."""
        while self._stack:
            top = self._stack.pop()
            end = self.clock()
            name, start, child, index = top
            dur = end - start
            self.self_s[name] += dur - child
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += dur
            if index is not None:
                span = self.spans[index]
                span[2] = end
                span[3] = dur - child
            if top is self._trial_frame:
                self._trial_frame = None
                self.trial = None
            if top is frame:
                return
        raise RuntimeError(f"span {frame[0]!r} closed twice")

    # ----------------------------------------------------- cells, trials
    def begin_cell(self, cell: str, profile) -> None:
        """Attribute counts to ``cell``, whose golden launches are those
        of ``profile``."""
        self._cell = self.counts.setdefault(cell, Counter())
        self._prefix = [0]
        for launch in profile.launches:
            self._prefix.append(self._prefix[-1] + launch["cycles"])

    def begin_trial(self) -> None:
        """Open a trial span unless one is open (a retried trial plans
        again inside the same trial)."""
        if self._trial_frame is None:
            self._trials += 1
            self.trial = self._trials
            self._trial_frame = self.open("trial")
            self._trial_cycles = 0
            self._plan = None

    def end_trial(self) -> None:
        """Close the open trial span; called from the campaign's public
        ``progress`` callback, right after the trial's journal commit."""
        if self._trial_frame is None:
            return
        self.close(self._trial_frame)
        plan, cell = self._plan, self._cell
        if plan is None or cell is None:
            return
        index = min(plan.launch_index, len(self._prefix) - 1)
        prefix = self._prefix[index]
        cell["trial_cycles"] += self._trial_cycles
        cell["prefix_launch_cycles"] += prefix
        if hasattr(plan, "cycle"):  # microarchitecture plans only
            cell["uarch_trial_cycles"] += self._trial_cycles
            cell["prefix_cycle_cycles"] += prefix + plan.cycle

    def count_launch(self, stats) -> None:
        self._trial_cycles += stats.cycles
        cell = self._cell
        if cell is None:
            return
        cell["launches"] += 1
        cell["cycles"] += stats.cycles
        cell["warp_instructions"] += stats.warp_instructions
        cell["l1d_accesses"] += stats.l1d.accesses
        cell["l2_accesses"] += stats.l2.accesses

    def note_compile(self, program, const_bank) -> None:
        """Count a compile whose (program, constant bank) was built before."""
        # The program is kept alive so that its id is never reused.
        banks = self._compiled.setdefault(id(program), (program, set()))[1]
        key = const_bank.tobytes()
        if key in banks:
            self.compile_reuse += 1
        else:
            banks.add(key)

    # ---------------------------------------------------------- queries
    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_durations(self, name: str) -> list[float]:
        return [s[3] for s in self.spans if s[0] == name]

    def campaign_self(self) -> list[float]:
        """Per ``campaign`` span: its duration minus its trial spans."""
        inside = defaultdict(float)
        for s in self.spans:
            if s[0] == "trial" and s[4] is not None:
                inside[s[4]] += s[2] - s[1]
        return [s[2] - s[1] - inside[i] for i, s in enumerate(self.spans)
                if s[0] == "campaign"]

    def cell_counts(self) -> dict[str, dict[str, int]]:
        return {cell: {k: int(c[k]) for k in COUNT_KEYS}
                for cell, c in self.counts.items()}

    def dump(self, path) -> None:
        """Write the spans as JSON lines, after one line of per-name totals."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"self_s": dict(self.self_s),
                                "calls": dict(self.calls),
                                "counts": self.cell_counts()},
                               sort_keys=True) + "\n")
            for name, start, end, self_s, parent, trial in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "self": self_s, "parent": parent,
                                    "trial": trial}) + "\n")


def _spanned(tracer: Tracer, name: str, fn, record: bool = True):
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = open_(name, record)
        try:
            return fn(*args, **kwargs)
        finally:
            close(frame)

    return wrapper


def _launch(tracer: Tracer, fn):
    @functools.wraps(fn)
    def launch(gpu, *args, **kwargs):
        before = gpu.stats
        frame = tracer.open("sim.launch")
        try:
            return fn(gpu, *args, **kwargs)
        finally:
            tracer.close(frame)
            if gpu.stats is not None and gpu.stats is not before:
                tracer.count_launch(gpu.stats)

    return launch


def _compile(tracer: Tracer, cls):
    def compiled_kernel(program, const_bank, config):
        tracer.note_compile(program, const_bank)
        frame = tracer.open("sim.compile")
        try:
            return cls(program, const_bank, config)
        finally:
            tracer.close(frame)

    return compiled_kernel


def _plan(tracer: Tracer, fn):
    @functools.wraps(fn)
    def plan(*args, **kwargs):
        tracer.begin_trial()
        frame = tracer.open("inject.plan")
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        tracer._plan = result
        return result

    return plan


@contextlib.contextmanager
def instrument(tracer: Tracer, app_classes=()):
    """Wrap each layer's public entry points with ``tracer`` spans.

    The campaign module binds the planners, ``outputs_equal`` and the
    compiled-kernel class by name at import, so those names are swapped
    where they are looked up.
    """
    import repro.fi.campaign as campaign_mod
    import repro.fi.svf_modes as svf_mod
    import repro.sdc as sdc_mod
    import repro.sim.gpu as gpu_mod
    import repro.store as store_mod
    from repro.fi.journal import CampaignJournal
    from repro.sim.cache import Cache
    from repro.sim.sm import SM

    def span(name, record=True):
        return lambda fn: _spanned(tracer, name, fn, record)

    patches = [
        (gpu_mod.GPU, "launch", lambda fn: _launch(tracer, fn)),
        (gpu_mod.GPU, "reset", span("sim.reset")),
        (gpu_mod.GPU, "memcpy_htod", span("app.memcpy")),
        (gpu_mod.GPU, "memcpy_dtoh", span("app.memcpy")),
        (gpu_mod, "CompiledKernel", lambda cls: _compile(tracer, cls)),
        (SM, "execute", span("sim.execute", record=False)),
        (Cache, "read_line", span("sim.memory", record=False)),
        (Cache, "write_word", span("sim.memory", record=False)),
        (Cache, "write_words_line", span("sim.memory", record=False)),
        (campaign_mod, "plan_microarch_fault", lambda fn: _plan(tracer, fn)),
        (campaign_mod, "plan_software_fault", lambda fn: _plan(tracer, fn)),
        (svf_mod, "plan_source_fault", lambda fn: _plan(tracer, fn)),
        (campaign_mod, "outputs_equal", span("app.classify")),
        (sdc_mod, "analyze_sdc", span("sdc.analyze")),
        (CampaignJournal, "append", span("journal.append")),
        (store_mod, "record_completed_campaign", span("store.record")),
    ]
    patches += [(cls, "run", span("app.run")) for cls in set(app_classes)]
    saved = []
    try:
        for target, attr, wrap in patches:
            saved.append((target, attr, vars(target).get(attr, _MISSING)))
            setattr(target, attr, wrap(getattr(target, attr)))
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
