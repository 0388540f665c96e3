"""repro - a from-scratch reproduction of CEDR-API (IPDPS-W 2023).

CEDR is a compiler-integrated runtime for domain-specific SoCs; CEDR-API is
its API-based programming model.  This package reproduces the entire
system on an emulated hardware substrate:

* :mod:`repro.simcore` - discrete-event simulator (threads, processor-
  sharing cores, accelerator devices, pthread-style sync);
* :mod:`repro.platforms` - emulated ZCU102 / Jetson AGX Xavier platforms
  with a calibrated timing model;
* :mod:`repro.kernels` - real NumPy compute kernels (FFT, ZIP, GEMM,
  convolution, WiFi baseband, Pulse-Doppler radar, lane-detection vision);
* :mod:`repro.dag` - the baseline JSON-DAG application format;
* :mod:`repro.runtime` - the CEDR daemon, workers, and tasks;
* :mod:`repro.sched` - RR / EFT / ETF / HEFT_RT scheduling heuristics;
* :mod:`repro.core` - the paper's contribution: blocking + non-blocking
  libCEDR APIs, module system, and standalone CPU mode;
* :mod:`repro.apps` - Pulse Doppler, WiFi TX, and Lane Detection in
  reference, DAG, and API forms;
* :mod:`repro.workload` / :mod:`repro.metrics` / :mod:`repro.experiments` -
  injection-rate workloads, the paper's metrics, and one driver per
  evaluation figure.

Quickstart::

    from repro.platforms import zcu102
    from repro.runtime import CedrRuntime, RuntimeConfig
    from repro.apps import PulseDoppler
    import numpy as np

    platform = zcu102(n_fft=1).build(seed=0)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler="heft_rt"))
    runtime.start()
    app = PulseDoppler().make_instance("api", np.random.default_rng(0))
    runtime.submit(app, at=0.0)
    runtime.seal()
    runtime.run()
    print(app.result)           # radar Detection(range, velocity)
"""

from importlib import import_module

__version__ = "1.0.0"

__all__ = ["__version__", "surface"]


def surface(namespace: dict, table: dict[str, tuple[str, ...]], eager: tuple[str, ...] = ()):
    """``(__getattr__, __dir__, __all__)`` of a package that declares its
    public surface once: *table* maps each submodule to the names it exports
    (a submodule exporting none is itself the export).  Only the *eager*
    submodules are imported now; any other name imports its submodule on
    first access (PEP 562) and is then cached in *namespace*, so importing
    the package costs only the modules every run importing it executes."""
    package = namespace["__name__"]
    owners = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = owners.get(name, name if name in table else None)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = import_module(f"{package}.{module}")
        namespace[name] = value = getattr(value, name) if name in owners else value
        return value

    for module in eager:
        for name in table[module]:
            __getattr__(name)
    exported = [*owners, *(module for module, names in table.items() if not names)]
    return __getattr__, lambda: sorted({*namespace, *exported}), exported
