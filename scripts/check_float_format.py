#!/usr/bin/env python3
"""Check that the CSV writer's float kernel prints every value as repr does.

    python3 scripts/check_float_format.py --cases N --seed S

Draws N seeded doubles, a third of them negative, and formats them in
chunks of `dataset.WRITE_ROWS` with `dataset._float_cells`, the kernel
that `write_series_csv` writes values with. They are drawn as raw bit
patterns, 40% across the kernel's exact domain [1e-4, 1e16) and just
beyond its ends and 20% over every double (subnormals, large exponents,
infinities and NaNs included), and 40% as decimals of 1 to 17 random
digits, which land on short representations, ties and their
neighbours. Exits 1 naming the first value whose bytes differ from its
repr, 0 when none do.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from cyclecast import dataset  # noqa: E402


def draw(rng, n):
    """n doubles of the three kinds above, shuffled."""
    low, high = np.array([1e-4, 1e16]).view(np.int64)
    edge = 1 << 20
    domain = rng.integers(low - edge, high + edge, n * 2 // 5)
    anywhere = rng.integers(0, 1 << 63, n // 5, dtype=np.uint64)
    bits = np.concatenate([domain.view(np.uint64), anywhere])
    k = n - len(bits)
    digits = rng.integers(1, 18, k)
    mantissa = np.floor(rng.random(k) * 10.0**digits) + 1
    exponent = rng.integers(-4, 17, k) - digits
    decimals = np.array([float(f"{m:.0f}e{e}")
                         for m, e in zip(mantissa, exponent)])
    # Each decimal or one of its neighbours.
    step = rng.integers(-1, 2, k)
    decimals = np.where(step == 0, decimals,
                        np.nextafter(decimals, np.copysign(np.inf, step)))
    bits = np.concatenate([bits, decimals.view(np.uint64)])
    bits[rng.random(n) < 1 / 3] ^= np.uint64(1 << 63)  # the sign bit
    return rng.permutation(bits.view(np.float64))


def first_mismatch(values):
    """(value, kernel text) of the first value the kernel prints unlike
    repr, or None."""
    for start in range(0, len(values), dataset.WRITE_ROWS):
        chunk = values[start:start + dataset.WRITE_ROWS]
        cells = dataset._float_cells(chunk)
        lines = np.concatenate([cells, np.full((1, len(chunk)), 10,
                                               np.uint8)])
        got = lines.T.tobytes().translate(None, b"\0")
        want = "".join(f"{v!r}\n" for v in chunk.tolist()).encode()
        if got != want:
            for value, text in zip(chunk.tolist(), got.split(b"\n")):
                if text.decode() != repr(value):
                    return value, text.decode()
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    mismatch = first_mismatch(draw(rng, args.cases))
    if mismatch is not None:
        value, text = mismatch
        print(f"mismatch: repr {value!r}, kernel {text!r} "
              f"(bits {np.float64(value).view(np.uint64):#018x})")
        return 1
    print(f"{args.cases} values match repr")
    return 0


if __name__ == "__main__":
    sys.exit(main())
