"""File formats used by the command line tools.

Three line-oriented text formats plus PPM ingestion:

* ``.mvf`` grid files carry one multivector per node of a regular grid,
  as a header (kind, signature, m, dims, origin, spacing) followed by a
  ``data`` line and, per node in row-major order, the 2**n blade
  coefficients.  Numbers are written with ``repr`` so text round-trips
  exactly; a binary variant stores the same payload as little-endian
  float64.  `read_grid_file` returns the library's own type: a
  `SampledField` for ``kind field``, a `Spectrum` for ``kind spectrum``.
* kernel configuration files list the signature, m, and each kernel's
  side and nonzero matrix entries as 1-based (row, col, expression)
  lines, in kernel order.
* frequency grid files carry dims/origin/spacing only.

Both grid formats read and write the dims/origin/spacing lines through
one pair of helpers and check them by building a `FreqGrid`, the same
check every grid in the library passes; a geometry it refuses is
reported with the file's path.  Every reader raises bad content as a
`FileFormatError`, which is a `ValueError`.

Multivector expressions are sums of terms ``coefficient*blade`` (or a
bare coefficient for the scalar part), e.g. ``6.283*e12 - 0.5``.  The
``*`` is mandatory, so ``2e12`` always lexes as the number 2e+12, never
as a blade term.  Basis indices above 9 are underscore-separated
(``e2_11``).
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .algebra import Multivector, Signature
from .kernels import GftSpec, KernelMatrix
from .transform import FreqGrid, SampledField, Spectrum

__all__ = [
    "FileFormatError",
    "write_field",
    "write_spectrum",
    "read_grid_file",
    "write_freqs",
    "read_freqs",
    "write_kernels",
    "read_kernels",
    "format_multivector_expr",
    "parse_multivector_expr",
    "read_ppm",
]

_MVF_MAGIC = "mvf"
_KERNELS_MAGIC = "gft-kernels"
_FREQS_MAGIC = "freqs"
_VERSION = "1"


class FileFormatError(ValueError):
    """Malformed or inconsistent file content."""


# ---------------------------------------------------------------------------
# multivector expressions

_TOKEN = re.compile(
    r"(?P<op>[+\-*])"
    r"|(?P<blade>e\d+(?:_\d+)*)"
    r"|(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+\-]?\d+)?)"
)


def format_multivector_expr(mv: Multivector) -> str:
    """Canonical text for a multivector: terms by ascending blade index."""
    parts: list[str] = []
    for mask, coef in mv.terms():
        label = mv.sig.blade_label(mask)
        body = repr(coef) if label == "1" else f"{coef!r}*{label}"
        if not parts:
            parts.append(body)
        elif coef < 0:
            parts.append(f"- {repr(-coef)}" + ("" if label == "1" else f"*{label}"))
        else:
            parts.append(f"+ {body}")
    return " ".join(parts) if parts else "0"


def _tokenize_expr(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if match is None:
            raise FileFormatError(
                f"bad character {text[pos]!r} in expression {text!r}"
            )
        tokens.append((match.lastgroup, match.group()))
        pos = match.end()
    return tokens


def parse_multivector_expr(text: str, sig: Signature) -> Multivector:
    """Parse a term sum like '1.5*e12 - 0.25 + e1' for one signature."""
    tokens = _tokenize_expr(text)
    out = Multivector.zero(sig)
    i = 0
    first = True
    while i < len(tokens):
        sign = 1.0
        saw_sign = False
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            saw_sign = True
            i += 1
        if i >= len(tokens):
            raise FileFormatError(f"expression {text!r} ends after a sign")
        if not first and not saw_sign:
            raise FileFormatError(
                f"missing '+' or '-' between terms in {text!r}"
            )
        kind, value = tokens[i]
        if kind == "num":
            coef = sign * float(value)
            if not np.isfinite(coef):
                raise FileFormatError(f"number {value!r} out of range in {text!r}")
            i += 1
            if i < len(tokens) and tokens[i] == ("op", "*"):
                i += 1
                if i >= len(tokens) or tokens[i][0] != "blade":
                    raise FileFormatError(
                        f"expected a blade after '*' in {text!r}"
                    )
                out = out + _blade_term(sig, tokens[i][1], coef, text)
                i += 1
            else:
                out = out + Multivector.scalar(sig, coef)
        elif kind == "blade":
            out = out + _blade_term(sig, value, sign, text)
            i += 1
        else:
            raise FileFormatError(f"unexpected {value!r} in expression {text!r}")
        first = False
    if first:
        raise FileFormatError("empty multivector expression")
    return out


def _blade_term(
    sig: Signature, label: str, coef: float, context: str
) -> Multivector:
    try:
        return Multivector.blade(sig, label, coef)
    except ValueError as exc:
        raise FileFormatError(
            f"blade {label!r} is not valid in {sig}: {exc} (in {context!r})"
        ) from None


# ---------------------------------------------------------------------------
# grid files (.mvf)


# The header lines that place a grid, each with its number type.  Grid
# files and frequency grid files share them, and `FreqGrid` checks them.
_GEOMETRY = (("dims", int), ("origin", float), ("spacing", float))


def _geometry_lines(grid: FreqGrid | SampledField) -> list[str]:
    return [key + " " + " ".join(repr(number(v)) for v in getattr(grid, key))
            for key, number in _GEOMETRY]


def _read_geometry(fields: dict[str, str], path: str | Path) -> FreqGrid:
    try:
        return FreqGrid(*(tuple(number(v) for v in _need(fields, key).split())
                          for key, number in _GEOMETRY))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _write_grid(
    path: str | Path,
    kind: str,
    sig: Signature,
    grid: FreqGrid | SampledField,
    values: np.ndarray,
    binary: bool,
) -> None:
    mode = "binary" if binary else "text"
    header = "\n".join(
        [
            f"{_MVF_MAGIC} {_VERSION} {mode}",
            f"kind {kind}",
            f"signature {sig.p} {sig.q}",
            f"m {len(grid.dims)}",
            *_geometry_lines(grid),
            "data",
            "",
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())
        else:
            rows = np.asarray(values, dtype=float).tolist()
            fh.write("".join(" ".join(map(repr, row)) + "\n" for row in rows)
                     .encode("ascii"))


def write_field(path: str | Path, field: SampledField, binary: bool = False) -> None:
    _write_grid(path, "field", field.sig, field, field.values, binary)


def write_spectrum(path: str | Path, spectrum: Spectrum, binary: bool = False) -> None:
    _write_grid(path, "spectrum", spectrum.sig, spectrum.grid, spectrum.values,
                binary)


def _header_dict(header: str, magic: str) -> dict[str, str]:
    lines = [ln.strip() for ln in header.splitlines() if ln.strip()]
    if not lines:
        raise FileFormatError("empty header")
    head = lines[0].split()
    if head[0] != magic or len(head) < 2 or head[1] != _VERSION:
        raise FileFormatError(
            f"expected '{magic} {_VERSION}' header, got {lines[0]!r}"
        )
    fields: dict[str, str] = {"__head__": lines[0]}
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key in fields:
            raise FileFormatError(f"duplicate header key {key!r}")
        fields[key] = rest.strip()
    return fields


def _need(fields: dict[str, str], key: str) -> str:
    if key not in fields:
        raise FileFormatError(f"missing header key {key!r}")
    return fields[key]


def read_grid_file(path: str | Path) -> SampledField | Spectrum:
    """The field (`kind field`) or spectrum (`kind spectrum`) in an .mvf
    file; bad content raises `FileFormatError`."""
    buf = Path(path).read_bytes()
    marker = b"\ndata\n"
    cut = buf.find(marker)
    if cut < 0:
        raise FileFormatError(f"{path}: no 'data' line found")
    try:
        header = buf[:cut].decode("ascii")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: non-ascii header: {exc}") from None
    payload = buf[cut + len(marker):]
    fields = _header_dict(header, _MVF_MAGIC)
    head = fields["__head__"].split()
    if len(head) != 3 or head[2] not in ("text", "binary"):
        raise FileFormatError(
            f"{path}: first line must be '{_MVF_MAGIC} {_VERSION} text|binary'"
        )
    mode = head[2]
    kind = _need(fields, "kind")
    if kind not in ("field", "spectrum"):
        raise FileFormatError(f"{path}: unknown kind {kind!r}")
    try:
        p, q = (int(v) for v in _need(fields, "signature").split())
        sig = Signature(p, q)
        m = int(_need(fields, "m"))
    except (ValueError, TypeError) as exc:
        raise FileFormatError(f"{path}: bad header value: {exc}") from None
    grid = _read_geometry(fields, path)
    if grid.m != m:
        raise FileFormatError(f"{path}: m is {m} but dims has {grid.m} entries")
    count = grid.node_count * sig.dim
    if mode == "binary":
        if len(payload) != 8 * count:
            raise FileFormatError(
                f"{path}: expected {8 * count} payload bytes, got {len(payload)}"
            )
        flat = np.frombuffer(payload, dtype="<f8").astype(float)
    else:
        try:
            flat = np.array(
                [float(tok) for tok in payload.decode("ascii").split()]
            )
        except (UnicodeDecodeError, ValueError) as exc:
            raise FileFormatError(f"{path}: bad text payload: {exc}") from None
        if flat.size != count:
            raise FileFormatError(
                f"{path}: expected {count} numbers, got {flat.size}"
            )
    if not np.isfinite(flat).all():
        raise FileFormatError(f"{path}: payload holds NaN or infinite values")
    values = flat.reshape(-1, sig.dim)
    if kind == "field":
        return SampledField(sig, grid.dims, grid.origin, grid.spacing, values)
    return Spectrum(sig, grid, values)


# ---------------------------------------------------------------------------
# frequency grid files


def write_freqs(path: str | Path, freqs: FreqGrid) -> None:
    lines = [f"{_FREQS_MAGIC} {_VERSION}", *_geometry_lines(freqs), ""]
    Path(path).write_text("\n".join(lines), encoding="ascii")


def read_freqs(path: str | Path) -> FreqGrid:
    fields = _header_dict(Path(path).read_text(encoding="ascii"), _FREQS_MAGIC)
    return _read_geometry(fields, path)


# ---------------------------------------------------------------------------
# kernel configuration files


def write_kernels(path: str | Path, spec: GftSpec) -> None:
    lines = [
        f"{_KERNELS_MAGIC} {_VERSION}",
        f"signature {spec.sig.p} {spec.sig.q}",
        f"m {spec.m}",
    ]
    for side, kernels in (("left", spec.left), ("right", spec.right)):
        for kern in kernels:
            lines.append(f"kernel {side}")
            for r, c in zip(*np.nonzero(kern.tensor.any(axis=2))):
                entry = Multivector(spec.sig, kern.tensor[r, c])
                lines.append(
                    f"entry {r + 1} {c + 1} {format_multivector_expr(entry)}"
                )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_kernels(path: str | Path) -> GftSpec:
    text = Path(path).read_text(encoding="ascii")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != [_KERNELS_MAGIC, _VERSION]:
        raise FileFormatError(
            f"{path}: expected '{_KERNELS_MAGIC} {_VERSION}' first line"
        )
    sig: Signature | None = None
    m: int | None = None
    sides: dict[str, list[list[tuple[int, int, Multivector]]]] = {
        "left": [],
        "right": [],
    }
    current: list[tuple[int, int, Multivector]] | None = None
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key == "signature":
            try:
                p, q = (int(v) for v in rest.split())
                sig = Signature(p, q)
            except (ValueError, TypeError) as exc:
                raise FileFormatError(f"{path}: bad signature: {exc}") from None
        elif key == "m":
            try:
                m = int(rest)
            except ValueError:
                raise FileFormatError(f"{path}: bad m {rest!r}") from None
        elif key == "kernel":
            side = rest.strip()
            if side not in ("left", "right"):
                raise FileFormatError(
                    f"{path}: kernel side must be left or right, got {side!r}"
                )
            current = []
            sides[side].append(current)
        elif key == "entry":
            if current is None:
                raise FileFormatError(f"{path}: entry before any kernel line")
            if sig is None or m is None:
                raise FileFormatError(
                    f"{path}: entries need signature and m declared first"
                )
            parts = rest.split(None, 2)
            if len(parts) != 3:
                raise FileFormatError(
                    f"{path}: entry needs 'row col expression', got {rest!r}"
                )
            try:
                r, c = int(parts[0]), int(parts[1])
            except ValueError:
                raise FileFormatError(
                    f"{path}: bad entry position in {rest!r}"
                ) from None
            if not (1 <= r <= m and 1 <= c <= m):
                raise FileFormatError(
                    f"{path}: entry ({r}, {c}) outside 1..{m}"
                )
            current.append((r - 1, c - 1, parse_multivector_expr(parts[2], sig)))
        else:
            raise FileFormatError(f"{path}: unknown line {ln!r}")
    if sig is None or m is None:
        raise FileFormatError(f"{path}: missing signature or m")
    if not sides["left"] and not sides["right"]:
        raise FileFormatError(f"{path}: no kernels declared")
    build = lambda triples: KernelMatrix.sparse(sig, m, triples)
    return GftSpec(
        sig,
        m,
        tuple(build(t) for t in sides["left"]),
        tuple(build(t) for t in sides["right"]),
    )


# ---------------------------------------------------------------------------
# PPM images


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary (P6) PPM with 8-bit samples; (height, width, 3) uint8."""
    buf = Path(path).read_bytes()
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(buf):
            ch = buf[pos:pos + 1]
            if ch == b"#":
                nl = buf.find(b"\n", pos)
                if nl < 0:
                    raise FileFormatError(f"{path}: unterminated comment")
                pos = nl + 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FileFormatError(f"{path}: truncated PPM header")
        return buf[start:pos]

    if next_token() != b"P6":
        raise FileFormatError(f"{path}: not a binary PPM (P6) file")
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError:
        raise FileFormatError(f"{path}: non-numeric PPM header field") from None
    if width < 1 or height < 1:
        raise FileFormatError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise FileFormatError(
            f"{path}: only 8-bit PPM supported (maxval 255, got {maxval})"
        )
    pos += 1  # single whitespace byte after maxval
    pixels = buf[pos:]
    need = width * height * 3
    if len(pixels) != need:
        raise FileFormatError(
            f"{path}: expected {need} pixel bytes, got {len(pixels)}"
        )
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3)
