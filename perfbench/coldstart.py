"""Fresh-process set-up probe for ``setup_s``.

Usage: ``python3 coldstart.py K|inf GAMMA`` with the package importable.
Imports zipfks, fills the log cache and the generating model's draw table
through a one-observation draw, starts a two-worker pool and waits for one
round trip, then prints ``ready``.  The caller times launch to ``ready``.
"""
import multiprocessing
import sys

from zipfks import RandomStream, Support, ZipfModel, sample


def main() -> None:
    k = None if sys.argv[1] == "inf" else int(sys.argv[1])
    model = ZipfModel(float(sys.argv[2]), Support(k=k))
    sample(model, 1, RandomStream.for_replicate(0, 0, 0))
    with multiprocessing.get_context().Pool(2) as pool:
        pool.apply(abs, (1,))
        print("ready", flush=True)


if __name__ == "__main__":
    main()
