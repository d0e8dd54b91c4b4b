#!/usr/bin/env python3
"""Check the CSV float kernels: the writer's prints every value as repr
does, and the reader's reads every field it settles as float() does.

    python3 scripts/check_float_format.py --cases N --seed S

Draws N seeded doubles, a third of them negative, and formats them in
chunks of `dataset.WRITE_ROWS` with `dataset._float_cells`, the kernel
that `write_series_csv` writes values with. They are drawn as raw bit
patterns, 40% across the kernel's exact domain [1e-4, 1e16) and just
beyond its ends and 20% over every double (subnormals, large exponents,
infinities and NaNs included), and 40% as decimals of 1 to 17 random
digits, which land on short representations, ties and their
neighbours. Then `dataset._read_decimals`, the kernel that `load_csv`
reads target fields with, reads each value's repr and spellings of it
that are not the shortest: with 17 and with 18 significant digits, and
with a zero added after its last digit or before its first. Exits 1
naming the first value whose bytes differ from its repr, or the first
field the reader settles to another double than float() reads; 0 when
none do.
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


def spellings(value):
    """repr of `value` and other texts that read as it: 17 and 18
    significant digits, and a zero after the last digit of a repr with a
    point, or before the first digit of one without an exponent."""
    text = repr(value)
    texts = [text, f"{value:.17g}", f"{value:.18g}"]
    if "e" not in text and text[-1].isdigit():
        sign = "-" if text[0] == "-" else ""
        texts.append(text + "0" if "." in text
                     else f"{sign}0{text.lstrip('-')}")
    return texts


def read_fields(texts):
    """`_read_decimals` over byte fields, each the target of a CSV line;
    (values, settled)."""
    prefix = b"2023-01-01 00:00:00,"
    widths = np.array([len(t) for t in texts])
    lines = len(prefix) + widths + 2
    start = np.cumsum(lines) - lines + len(prefix)
    data = b"".join(prefix + t + b"\r\n" for t in texts)
    return dataset._read_decimals(np.frombuffer(data, np.uint8), start,
                                  widths)


def first_misread(values):
    """(text, double read) of the first spelling the reader settles to
    another double than float() reads, or None."""
    for start in range(0, len(values), dataset.WRITE_ROWS):
        texts = [t.encode() for v in
                 values[start:start + dataset.WRITE_ROWS].tolist()
                 for t in spellings(v)]
        read, settled = read_fields(texts)
        want = np.array([float(t) for t in texts])
        wrong = np.flatnonzero(settled & (read.view(np.int64)
                                          != want.view(np.int64)))
        if wrong.size:
            return texts[wrong[0]].decode(), float(read[wrong[0]])
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    values = draw(rng, args.cases)
    mismatch = first_mismatch(values)
    if mismatch is not None:
        value, text = mismatch
        print(f"mismatch: repr {value!r}, kernel {text!r} "
              f"(bits {np.float64(value).view(np.uint64):#018x})")
        return 1
    misread = first_misread(values)
    if misread is not None:
        text, value = misread
        print(f"misread: {text!r} is {float(text)!r}, reader {value!r}")
        return 1
    print(f"{args.cases} values match repr, and their spellings read as "
          "float()")
    return 0


if __name__ == "__main__":
    sys.exit(main())
