"""Worker threads: one per PE, exactly as in the paper's runtime.

CPU workers are pinned to their own core and execute tasks there.
Accelerator workers are *management threads* pinned to a host CPU core:
they pay the dispatch setup (DMA descriptors / ``cudaMemcpy``) as ordinary
processor-shared CPU work, occupy the device exclusively for the kernel
itself, then pay the teardown on the CPU again.  When a task completes the
worker signals the application thread's condition variable (API mode,
Fig. 4) and posts a ``task_done`` event to the daemon.

Functional execution is layered on top of the timing charge: when
``execute_kernels`` is enabled the worker resolves the (API, PE kind)
implementation from the kernel registry - CEDR's "dynamically updates that
task's function pointer" step - and actually computes the result, so
integration tests can check numerics end to end.

Fault paths (repro.faults)
--------------------------

With fault injection active the daemon pushes ``(task, epoch)`` pairs
instead of bare tasks, and the worker becomes the *detection* point:

* a dispatch whose epoch no longer matches ``task.dispatch_epoch`` was
  invalidated (the watchdog re-dispatched the task elsewhere) and is
  discarded silently;
* a dead PE bounces tasks straight back as fail-stop failures;
* pending transient/hang faults on the PE turn the completing task into a
  ``task_failed`` event instead of ``task_done`` - no functional result,
  no completion signal, no logbook row; the daemon's retry policy decides
  what happens next;
* an active slowdown fault stretches the timing charge by the PE's
  ``fault_slow_factor``.

Fault-free runs take none of these branches and are bit-identical to the
pre-fault worker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.kernels.registry import implementation_for
from repro.platforms.pe import CPU_ONLY_API, PEKind
from repro.simcore import AcquireDevice, Compute, Request, Sleep

from .task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.platforms import PE

    from .daemon import CedrRuntime

__all__ = ["SHUTDOWN", "worker_body"]

#: Mailbox sentinel telling a worker to exit (the shutdown IPC command).
SHUTDOWN = object()

# the task states a worker writes per task, bound once: on CPython 3.11 a
# member read through its enum class is a metaclass lookup, tens of times
# dearer than a module global
_RUNNING, _DONE = TaskState.RUNNING, TaskState.DONE


def _rebuilt(request: Compute, slow: float, noisy: bool, runtime: "CedrRuntime") -> Compute:
    """A fresh request for one segment of a stretched or jittered attempt:
    the shared request's work times the fault slowdown, then times one
    noise draw - the multiplies, and the draw, of the per-task model."""
    work = request.work
    if slow != 1.0:
        work *= slow
    if noisy:
        work *= runtime.sample_noise()
    return Compute(work)


def _execute_functional(runtime: "CedrRuntime", task: Task, pe: "PE") -> Any:
    """Run the task's actual kernel (or cpu_op callable) and return result
    (``execute_kernels`` runs only)."""
    if task.api == CPU_ONLY_API:
        state = runtime.apps[task.app_id].state
        return task.cpu_fn(state) if task.cpu_fn else None
    if task.input_keys:  # DAG kernel node: dataflow through the state dict
        state = runtime.apps[task.app_id].state
        inputs = [state[k] for k in task.input_keys]
        payload = inputs[0] if len(inputs) == 1 else tuple(inputs)
    else:  # API-mode call: payload travels with the task
        payload = task.payload
    impl = implementation_for(task.api, pe.kind)
    result = impl(payload)
    if task.output_key is not None:
        runtime.apps[task.app_id].state[task.output_key] = result
    return result


def worker_body(runtime: "CedrRuntime", pe: "PE") -> Generator[Request, Any, None]:
    """Generator body of the worker thread paired with *pe*.

    The caller spawns it with affinity ``pe.core`` (CPU PEs) or
    ``pe.host_core`` (accelerator PEs), so every plain :class:`Compute`
    below lands on the right core automatically.
    """
    mailbox = runtime.mailboxes[pe.index]
    costs = runtime.config.costs
    engine = runtime.engine
    is_cpu = pe.kind is PEKind.CPU
    # bound once: a park / unpark is one Core.spin call, and every event
    # goes straight onto the daemon's queue
    spin = (pe.core if is_cpu else pe.host_core).spin
    post = runtime.events.post
    faults = runtime.faults.config if runtime.faults is not None else None
    executes = runtime.config.execute_kernels
    noisy = runtime.noise_rng is not None
    # the two bookkeeping charges and the device grab are constants: one
    # shared request each
    dispatch = Compute(costs.worker_dispatch_us * 1e-6 * runtime.cost_scale)
    signal = Compute(costs.completion_signal_us * 1e-6 * runtime.cost_scale)
    acquire = None if is_cpu else AcquireDevice(pe.device)

    while True:
        # CEDR workers busy-poll their queues: an idle worker occupies a full
        # processor-sharing slot on its core until a task (or shutdown)
        # arrives.  This spinning is what squeezes application threads and
        # makes every added accelerator-management thread costly (Fig. 10).
        spin(1)
        try:
            item = yield from mailbox.get()
        finally:
            spin(-1)
        if item is SHUTDOWN:
            return
        if faults is None:
            task, my_epoch = item, 0
        else:
            task, my_epoch = item
        # in-flight from the instant the task leaves the mailbox, so the
        # daemon's shutdown drain check never races the dispatch segment
        runtime.inflight[pe.index] += 1
        if faults is not None:
            if my_epoch != task.dispatch_epoch:
                # invalidated while still queued: the watchdog re-dispatched
                # the task and already reclaimed this PE's backlog share.
                # The kick matters: discarding produces no task_done/
                # task_failed event, and if this was the last work in flight
                # the daemon would otherwise block on its event queue forever
                # instead of re-checking its shutdown condition.
                runtime.inflight[pe.index] -= 1
                runtime.logbook.record_incident(engine.now, "stale", pe=pe.name, tid=task.tid)
                post(("kick", None))
                continue
            if pe.dead:
                # fail-stop bounce: no cycles spent, straight back to the
                # daemon for re-scheduling on a live PE
                runtime.inflight[pe.index] -= 1
                pe.outstanding_est = max(0.0, pe.outstanding_est - task.est_used)
                post(("task_failed", (task, pe, my_epoch, "failstop")))
                continue
        yield dispatch

        task.state = _RUNNING
        task.t_start = engine.now

        # this PE's requests for the task's shape, read from its interned
        # row; a stretched or jittered attempt rebuilds each segment from
        # them at the instant the segment starts
        table = runtime.cost_table
        if task.cost_token != table.token:
            table.task_row(task)
        requests = table.work[task.cost_row][pe.index]
        slow = pe.fault_slow_factor if faults is not None else 1.0
        perturbed = noisy or slow != 1.0
        if is_cpu:
            yield _rebuilt(requests, slow, noisy, runtime) if perturbed else requests
        else:
            # Polling dispatch (see TimingModel docstring): every phase is
            # CPU work on the host core; the device is held exclusively
            # through the DMA/poll and completion phases, so its occupancy
            # stretches with host-core contention exactly like the real
            # driverless-MMIO management threads.  One noise draw per
            # phase, in phase order.
            setup, busy, teardown = requests
            yield _rebuilt(setup, slow, noisy, runtime) if perturbed else setup
            yield acquire
            me = engine.current  # the worker thread itself
            yield _rebuilt(busy, slow, noisy, runtime) if perturbed else busy
            yield _rebuilt(teardown, slow, noisy, runtime) if perturbed else teardown
            pe.device.release(me)

        if faults is not None:
            failure = None
            if my_epoch != task.dispatch_epoch or task.state is _DONE:
                # the watchdog gave up on this dispatch mid-flight; the est
                # backlog was reclaimed by the daemon when it re-dispatched
                runtime.inflight[pe.index] -= 1
                runtime.logbook.record_incident(engine.now, "stale", pe=pe.name, tid=task.tid)
                post(("kick", None))  # wake the shutdown drain check
                continue
            if pe.dead:
                failure = "failstop"
            elif pe.hang_pending > 0:
                # wedged accelerator / runaway poll: the worker sits on the
                # task until either the watchdog steals it (stale on wake)
                # or the hang window elapses and the failure is detected
                pe.hang_pending -= 1
                yield Sleep(faults.hang_s)
                if my_epoch != task.dispatch_epoch:
                    runtime.inflight[pe.index] -= 1
                    runtime.logbook.record_incident(
                        engine.now, "stale", pe=pe.name, tid=task.tid
                    )
                    post(("kick", None))  # wake the shutdown drain check
                    continue
                failure = "hang"
            elif pe.transient_pending > 0:
                pe.transient_pending -= 1
                failure = "transient"
            if failure is not None:
                runtime.inflight[pe.index] -= 1
                pe.outstanding_est = max(0.0, pe.outstanding_est - task.est_used)
                post(("task_failed", (task, pe, my_epoch, failure)))
                continue

        result = _execute_functional(runtime, task, pe) if executes else None
        task.result = result
        task.t_finish = engine.now
        task.state = _DONE
        task.pe = pe
        runtime.inflight[pe.index] -= 1
        # Backlog + slowdown feedback for the scheduling heuristics: how
        # much slower did this task run than its profile said (contention)?
        left = pe.outstanding_est - task.est_used
        pe.outstanding_est = left if left > 0.0 else 0.0  # max(0.0, left), minus the call
        if task.est_used > 0.0:
            observed = (task.t_finish - task.t_start) / task.est_used  # service_time
            pe.slowdown += 0.1 * (observed - pe.slowdown)
        runtime.logbook.record_task(task)

        if task.completion is not None:
            # Fig. 4: worker wakes the application thread directly.
            yield signal
            task.completion.complete(result)

        post(("task_done", task))
