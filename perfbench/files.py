"""The benchmark's own writers and reader for the command-line file formats.

Written from the format description (header lines, a `data` line, then
the payload as text numbers or little-endian float64), not from
gafourier.fileio, so that the command's outputs are parsed by code the
program does not share.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def write_field(path: Path, p: int, q: int, dims, origin, spacing, values: np.ndarray) -> None:
    """Text .mvf field file, one node per line."""
    header = [
        "mvf 1 text",
        "kind field",
        f"signature {p} {q}",
        f"m {len(dims)}",
        "dims " + " ".join(str(int(d)) for d in dims),
        "origin " + _floats(origin),
        "spacing " + _floats(spacing),
        "data",
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(header) + "\n")
        for row in np.asarray(values, dtype=float).tolist():
            fh.write(" ".join(map(repr, row)) + "\n")


def write_freqs(path: Path, dims, origin, spacing) -> None:
    Path(path).write_text(
        "freqs 1\n"
        f"dims {' '.join(str(int(d)) for d in dims)}\n"
        f"origin {_floats(origin)}\n"
        f"spacing {_floats(spacing)}\n",
        encoding="ascii",
    )


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    """Binary P6 PPM from a (height, width, 3) uint8 array."""
    height, width, _ = pixels.shape
    Path(path).write_bytes(
        f"P6\n{width} {height}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes()
    )


def parse_mvf(buf: bytes) -> tuple[dict[str, str], np.ndarray]:
    """Header fields and the (nodes, 2**n) payload of .mvf file contents."""
    cut = buf.index(b"\ndata\n")
    lines = buf[:cut].decode("ascii").splitlines()
    magic, version, mode = lines[0].split()
    if (magic, version) != ("mvf", "1"):
        raise ValueError("not an mvf 1 file")
    header = dict(line.split(" ", 1) for line in lines[1:])
    header["mode"] = mode
    p, q = (int(v) for v in header["signature"].split())
    nodes = int(np.prod([int(d) for d in header["dims"].split()]))
    payload = buf[cut + len(b"\ndata\n"):]
    if mode == "binary":
        flat = np.frombuffer(payload, dtype="<f8")
    else:
        flat = np.array([float(tok) for tok in payload.split()])
    return header, flat.reshape(nodes, 1 << (p + q))
