"""Set-up probe: import rbmlab from the checkout, build one workload, and
print ``ready``.  ``run.py`` times this from spawning the interpreter.

    python3 perfbench/probe.py <workload>
"""
import sys

from run import use_checkout_src

if __name__ == "__main__":
    use_checkout_src()
    import workloads

    workloads.build(sys.argv[1])
    print("ready", flush=True)
