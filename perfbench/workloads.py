"""The four benchmark workloads: inputs from a seed, one operation, a verdict.

Every operation is issued by one single-threaded client that waits for the
answer (a closed loop with one client).  Operation i draws its inputs from
``Random(f"<workload>:<seed>:<i>")``, so a seed fixes the whole sequence.
An operation's cost is the CPU time of the process doing the work: the
benchmark process for library calls, the child for CLI calls.  Results are
checked outside the timed region against ``oracle``.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import oracle
from oracle import RefField, close

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

VEC_NAMES = ("a", "b", "c", "dr")
UNBOUND_NAMES = ("w", "zz", "u1", "q")
FD_STEP = 2.0**-10  # a power of two keeps central differences exact below


# --- processes ------------------------------------------------------------------


def child_env() -> dict:
    """Children import gibbskit from ./src and, like an installed package, use bytecode caches."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, timeout=120, quiet=contextlib.nullcontext):
    """Run one child to completion; returns (proc, cpu_ns, wall_ns).

    CPU time is the child's user + system time, read from the rusage of
    waited-for children; only one child runs at a time, so the difference
    belongs to this child alone.  ``quiet`` is entered while it runs.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    w0 = time.perf_counter_ns()
    with quiet():
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    wall = time.perf_counter_ns() - w0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return proc, int(cpu * 1e9), wall


# --- input generation ---------------------------------------------------------------


def monomials(degree):
    return [
        (px, py, pz)
        for total in range(degree + 1)
        for px in range(total, -1, -1)
        for py in range(total - px, -1, -1)
        for pz in (total - px - py,)
    ]


def field_spec(rng, degree, coeff, keep=1.0):
    comps = []
    for _ in range(3):
        comps.append(
            [
                {"coeff": coeff(rng), "powers": list(p)}
                for p in monomials(degree)
                if rng.random() < keep
            ]
        )
    return {"type": "polynomial", "components": comps}


def uniform_coeff(rng):
    return rng.uniform(-1.0, 1.0)


def dyadic_coeff(rng):
    return rng.choice([k for k in range(-16, 17) if k]) / 8.0


def dyadic_point(rng):
    return [rng.randint(-32, 32) / 16.0 for _ in range(3)]


def dyadic_vec(rng):
    return [rng.randint(-16, 16) / 8.0 for _ in range(3)]


def byte_offset(text):
    return len(text.encode("utf-8"))


# Values in the oracle's form: (kind, flat values, flat magnitudes).


def _scal(v, m):
    return ("scalar", [v], [m])


def _vec(v, m):
    return ("vector", list(v), list(m))


def _cross(a, am, b, bm):
    v = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    m = [am[1] * bm[2] + am[2] * bm[1], am[2] * bm[0] + am[0] * bm[2], am[0] * bm[1] + am[1] * bm[0]]
    return v, m


def _sym(name, rng):
    """Unicode or ASCII spelling of an operator."""
    ascii_ = {"·": ".", "⊗": "(x)", "∧": "^", "×": "cross", "†": "'", "∇": "grad"}
    return ascii_[name] if rng.random() < 0.25 else name


def _vec_tree(rng, depth, env):
    """(text, values, magnitudes) of a random vector expression."""
    if depth == 0 or rng.random() < 0.25:
        name = rng.choice(VEC_NAMES)
        v = env[name]
        return name, v, [abs(c) for c in v]
    op = rng.choice(("+", "-", "×", "*", "neg"))
    if op == "neg":
        t, v, m = _vec_tree(rng, depth - 1, env)
        return f"(-{t})", [-c for c in v], m
    if op == "*":
        st, sv, sm = _scal_tree(rng, depth - 1, env)
        t, v, m = _vec_tree(rng, depth - 1, env)
        return f"({st} * {t})", [sv * c for c in v], [sm * c for c in m]
    lt, lv, lm = _vec_tree(rng, depth - 1, env)
    rt, rv, rm = _vec_tree(rng, depth - 1, env)
    if op == "×":
        v, m = _cross(lv, lm, rv, rm)
        return f"({lt} {_sym('×', rng)} {rt})", v, m
    sign = 1.0 if op == "+" else -1.0
    return f"({lt} {op} {rt})", [a + sign * b for a, b in zip(lv, rv)], [a + b for a, b in zip(lm, rm)]


def _scal_tree(rng, depth, env):
    """(text, value, magnitude) of a random scalar expression."""
    if depth == 0 or rng.random() < 0.25:
        lit = rng.choice((0.5, 2.0, 1.25, 3.0, 0.75))
        text = repr(lit) if lit != int(lit) else str(int(lit))
        return text, lit, lit
    op = rng.choice(("·", "+", "-", "*"))
    if op == "·":
        lt, lv, lm = _vec_tree(rng, depth - 1, env)
        rt, rv, rm = _vec_tree(rng, depth - 1, env)
        v = lv[0] * rv[0] + lv[1] * rv[1] + lv[2] * rv[2]
        m = sum(a * b for a, b in zip(lm, rm))
        return f"({lt} {_sym('·', rng)} {rt})", v, m
    lt, lv, lm = _scal_tree(rng, depth - 1, env)
    rt, rv, rm = _scal_tree(rng, depth - 1, env)
    if op == "*":
        return f"({lt} * {rt})", lv * rv, lm * rm
    return f"({lt} {op} {rt})", lv + rv if op == "+" else lv - rv, lm + rm


def algebra_expression(rng, env, depth):
    """Plain algebra on bound vectors; the top level may form a tensor or bivector."""
    top = rng.random()
    if top < 0.15:
        lt, lv, lm = _vec_tree(rng, depth - 1, env)
        rt, rv, rm = _vec_tree(rng, depth - 1, env)
        vals = [a * b for a in lv for b in rv]
        mags = [a * b for a in lm for b in rm]
        return f"({lt}) {_sym('⊗', rng)} ({rt})", ("tensor", vals, mags)
    if top < 0.3:
        lt, lv, lm = _vec_tree(rng, depth - 1, env)
        rt, rv, rm = _vec_tree(rng, depth - 1, env)
        vals = [0.0] * 8
        mags = [0.0] * 8
        for slot, (i, j) in ((4, (0, 1)), (5, (0, 2)), (6, (1, 2))):
            vals[slot] = lv[i] * rv[j] - lv[j] * rv[i]
            mags[slot] = lm[i] * rm[j] + lm[j] * rm[i]
        return f"({lt}) {_sym('∧', rng)} ({rt})", ("multivector", vals, mags)
    if top < 0.6:
        t, v, m = _scal_tree(rng, depth, env)
        return t, _scal(v, m)
    t, v, m = _vec_tree(rng, depth, env)
    return t, _vec(v, m)


def derivative_expression(rng, ref, x, env):
    """One of the derivative forms, with its oracle value."""
    g, gm = ref.grad(x)
    gt, gtm = oracle.transpose(g), oracle.transpose(gm)
    d, om, sm = oracle.sym(g), oracle.antisym(g), oracle.sym_mag(gm)
    dr, c, b = env["dr"], env["c"], env["b"]
    adr, ac = oracle.absv(dr), oracle.absv(c)
    cb = [p + q for p, q in zip(c, b)]
    n, S = _sym("∇", rng), _sym
    forms = [
        (lambda: (f"{n}{S('⊗', rng)}v", ("tensor", g, gm))),
        (lambda: (f"({n}{S('⊗', rng)}v){S('†', rng)}", ("tensor", gt, gtm))),
        (lambda: (f"{n}{S('·', rng)}v", _scal(oracle.trace(g), gm[0] + gm[4] + gm[8]))),
        (lambda: (f"{n}{S('∧', rng)}v", ("multivector", oracle.wedge_bivector(g), oracle.wedge_bivector_mag(gm)))),
        (lambda: (f"{n} {S('×', rng)} v", _vec(oracle.curl(g), oracle.curl_mag(gm)))),
        (lambda: ("d", ("tensor", d, sm))),
        (lambda: (rng.choice(("Ω", "Omega")), ("tensor", om, sm))),
        (lambda: (f"dr {S('·', rng)} ({n}{S('⊗', rng)}v)", _vec(oracle.postfactor(dr, g), oracle.postfactor(adr, gm)))),
        (lambda: (f"({n}{S('⊗', rng)}v) {S('·', rng)} dr", _vec(oracle.prefactor(g, dr), oracle.prefactor(gm, adr)))),
        (lambda: ("dr · d", _vec(oracle.postfactor(dr, d), oracle.postfactor(adr, sm)))),
        (lambda: ("Ω · dr", _vec(oracle.prefactor(om, dr), oracle.prefactor(sm, adr)))),
        (lambda: ("d + Ω", ("tensor", [p + q for p, q in zip(d, om)], [2 * m for m in sm]))),
        (lambda: ("2 * d", ("tensor", [2 * p for p in d], [2 * m for m in sm]))),
        (lambda: (f"{n}(c {S('·', rng)} v)", _vec(oracle.prefactor(g, c), oracle.prefactor(gm, ac)))),
        (lambda: (f"{n}(v · dr)", _vec(oracle.prefactor(g, dr), oracle.prefactor(gm, adr)))),
        # not of the form c . v, so evaluated by central differences
        (lambda: (f"{n}((c + b) · v)", _vec(oracle.prefactor(g, cb), oracle.prefactor(gm, oracle.absv(cb))))),
        (lambda: (f"{n}(2 * (c · v))", _vec(oracle.prefactor(g, [2 * q for q in c]), oracle.prefactor(gm, [2 * q for q in ac])))),
        (lambda: ("v", _vec(*ref.value(x)))),
        (lambda: ("c · v", _dot_field(ref, x, c))),
    ]
    return rng.choice(forms)()


def _dot_field(ref, x, c):
    v, m = ref.value(x)
    return _scal(sum(p * q for p, q in zip(c, v)), sum(abs(p) * q for p, q in zip(c, m)))


def malformed_expression(rng):
    """(text, byte offset at which a NotationError must be raised)."""
    p, q, r = (rng.choice(VEC_NAMES) for _ in range(3))
    kind = rng.randrange(6)
    if kind == 0:
        first, second = rng.sample(["·", "⊗", "∧", "×"], 2)
        head = f"{p} {_sym(first, rng)} {q} "
        return head + f"{_sym(second, rng)} {r}", byte_offset(head)
    if kind == 1:
        head = f"{p} · {q} "
        return head + f"{rng.choice('$#@!?')} {r}", byte_offset(head)
    if kind == 2:
        head = f"{p} · "
        return head + rng.choice(UNBOUND_NAMES), byte_offset(head)
    if kind == 3:
        text = f"({p} + {q}"
        return text, byte_offset(text)
    if kind == 4:
        head = f"{p} ⊗ "
        return head + "∇", byte_offset(head)
    head = "∇ "
    return head + f"· {p}", byte_offset(head)


def notation_script(rng, ref, x, env, count):
    """[(text, expected)], expected being ("error", offset) or an oracle value."""
    script = []
    for _ in range(count):
        r = rng.random()
        if r < 0.1:
            text, offset = malformed_expression(rng)
            script.append((text, ("error", offset)))
        elif r < 0.55:
            script.append(derivative_expression(rng, ref, x, env))
        elif r < 0.85:
            script.append(algebra_expression(rng, env, rng.randint(1, 2)))
        else:
            script.append(algebra_expression(rng, env, rng.randint(4, 6)))
    return script


# --- checking library values ----------------------------------------------------


def flat(value, gk):
    """(kind, flat values) of a library value."""
    if isinstance(value, gk.ga.Vec3):
        return "vector", list(value.as_tuple())
    if isinstance(value, gk.dyadics.Tensor3):
        return "tensor", rows(value)
    if isinstance(value, gk.ga.Multivector):
        return "multivector", list(value.coeffs)
    return "scalar", [value]


def rows(t):
    return [c for r in t.rows for c in r]


def matches(got_kind, got_vals, expected):
    kind, vals, mags = expected
    return got_kind == kind and close(got_vals, vals, mags)


# --- workloads --------------------------------------------------------------


class Workload:
    name = ""
    in_process = True  # False when operations run in child processes
    warmup = 0  # untimed operations before the timed phase
    trace_ops = 1  # fixed operation count of the traced run
    imports: tuple[str, ...] = ("gibbskit",)

    def __init__(self, seed: int, gk):
        self.seed = seed
        self.gk = gk
        self.clock = time.process_time_ns  # CPU time of the work, in ns
        self.quiet = contextlib.nullcontext  # entered while a child process runs

    def rng(self, i):
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def setup_payload(self) -> dict:
        """What a fresh set-up process builds: field specs or field files."""
        return {"specs": [], "paths": []}

    def build(self):
        """In-process set-up before any operation."""

    def inputs(self, i):
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def verify(self, inp, out) -> str | None:
        """None when the output is correct, else what was wrong."""
        raise NotImplementedError

    def run(self, i, traced=None):
        """One operation: (error or None, cpu_ns, wall_ns)."""
        inp = self.inputs(i)
        w0 = time.perf_counter_ns()
        c0 = self.clock()
        try:
            out = self.call(inp)
        except Exception as exc:  # an unexpected exception is a failed operation
            cpu, wall = self.clock() - c0, time.perf_counter_ns() - w0
            return f"unexpected {type(exc).__name__}: {exc}", cpu, wall
        cpu, wall = self.clock() - c0, time.perf_counter_ns() - w0
        return self.verify(inp, out), cpu, wall


class Sweep(Workload):
    """Point queries on a small pool of fields built once in set-up."""

    name = "sweep"
    warmup = 20
    trace_ops = 200
    POOL_DEGREES = (1, 2, 3, 4, 1, 2, 3, 4)

    def __init__(self, seed, gk):
        super().__init__(seed, gk)
        rng = random.Random(f"sweep-pool:{seed}")
        self.specs = [field_spec(rng, d, uniform_coeff) for d in self.POOL_DEGREES]
        self.refs = [RefField(s) for s in self.specs]

    def setup_payload(self):
        return {"specs": self.specs, "paths": []}

    def build(self):
        self.fields = [self.gk.fields.field_from_dict(s) for s in self.specs]

    def inputs(self, i):
        rng = self.rng(i)
        k = i % len(self.specs)
        x = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        dx = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        Vec3 = self.gk.ga.Vec3
        return k, x, dx, Vec3(*x), Vec3(*dx)

    def call(self, inp):
        k, _, _, x, dx = inp
        f = self.fields[k]
        kin = self.gk.kinematics
        return (
            kin.report(f, x),
            kin.strain_split(f, x, dx),
            kin.bidi_forward(f, x, dx),
            kin.bidi_reverse(f, x, dx),
            kin.dv_prefactor(f, x, dx),
        )

    def verify(self, inp, out):
        k, x, dx, _, _ = inp
        rep, (comp, incomp), fwd, rev, dvp = out
        want = oracle.kinematics_at(self.refs[k], x, dx)
        total = [a + b for a, b in zip(comp.as_tuple(), incomp.as_tuple())]
        d_plus_omega = [a + b for a, b in zip(rows(rep.d), rows(rep.omega))]
        checks = (
            ("G", rows(rep.grad_gibbs), "G"),
            ("grad_alt", rows(rep.grad_alt), "Gt"),
            ("d", rows(rep.d), "d"),
            ("omega", rows(rep.omega), "omega"),
            ("d + omega", d_plus_omega, "G"),
            ("bivector", list(rep.omega_bivector.coeffs), "bivector"),
            ("vorticity", list(rep.vorticity.as_tuple()), "vorticity"),
            ("divergence", [rep.divergence], "divergence"),
            ("compressive", list(comp.as_tuple()), "compressive"),
            ("incompressive", list(incomp.as_tuple()), "incompressive"),
            ("strain split sum", total, "dv"),
            ("bidi_forward", list(fwd.as_tuple()), "bidi_forward"),
            ("bidi_reverse", list(rev.as_tuple()), "bidi_reverse"),
            ("dv_prefactor", list(dvp.as_tuple()), "dv"),
        )
        for label, got, key in checks:
            vals, mags = want[key]
            if not close(got, vals, mags):
                return f"{label} differs from oracle at field {k}, point {x}"
        return None


class Notation(Workload):
    """One request: a fresh low-degree field, then a script evaluated at a point."""

    name = "notation"
    warmup = 20
    trace_ops = 200

    def inputs(self, i):
        rng = self.rng(i)
        spec = field_spec(rng, rng.choice((1, 2)), dyadic_coeff, keep=0.75)
        x = dyadic_point(rng)
        env = {name: dyadic_vec(rng) for name in VEC_NAMES}
        script = notation_script(rng, RefField(spec), x, env, rng.randint(1, 8))
        Vec3 = self.gk.ga.Vec3
        bindings = {name: Vec3(*v) for name, v in env.items()}
        return spec, Vec3(*x), bindings, script

    def call(self, inp):
        spec, x, bindings, script = inp
        nt = self.gk.notation
        f = self.gk.fields.field_from_dict(spec)
        ctx = nt.EvalContext(f, x, bindings, fd_step=FD_STEP)
        out = []
        for text, _ in script:
            try:
                out.append(nt.evaluate(nt.parse(text), ctx))
            except nt.NotationError as exc:
                out.append(exc)
        return out

    def verify(self, inp, out):
        script = inp[3]
        for (text, expected), got in zip(script, out):
            if expected[0] == "error":
                if not isinstance(got, self.gk.notation.NotationError):
                    return f"{text!r} was accepted; expected a NotationError"
                if got.pos != expected[1]:
                    return f"{text!r} rejected at offset {got.pos}, expected {expected[1]}"
            elif isinstance(got, Exception):
                return f"{text!r} raised {got}"
            elif not matches(*flat(got, self.gk), expected):
                return f"{text!r} differs from oracle"
        return None


class Check(Workload):
    """checks.run_all over successive seeds: the maintainers' gate."""

    name = "check"
    imports = ("gibbskit", "gibbskit.checks")

    def inputs(self, i):
        return self.seed * 1000 + i

    def call(self, inp):
        return self.gk.checks.run_all(inp)

    def verify(self, inp, out):
        names = tuple(r.name for r in out)
        if names != self.gk.checks.CHECK_NAMES or len(names) != 28:
            return f"run_all({inp}) returned {len(names)} results"
        bad = [r.name for r in out if not r.passed]
        return f"run_all({inp}) failed: {bad}" if bad else None


# --- the CLI workload -------------------------------------------------------------

SAMPLES = {
    "sample_fields/shear.json": ("tests/fixtures/golden_shear.json", [0.0, 0.0, 0.0]),
    "sample_fields/rotation.json": ("tests/fixtures/golden_rotation.json", [1.0, 0.0, 0.0]),
    "sample_fields/dilation.json": ("tests/fixtures/golden_dilation.json", [1.0, 1.0, 1.0]),
}

NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")
TEXT_REL = 1e-5  # text output prints 6 significant digits


def parse_multivector(text):
    """Coefficients of a multivector in the CLI's text rendering."""
    coeffs = [0.0] * 8
    toks = text.split()
    i, sign = 0, 1.0
    while i < len(toks):
        tok = toks[i]
        if tok in ("+", "-"):
            sign = -1.0 if tok == "-" else 1.0
            i += 1
            tok = toks[i]
        if tok.startswith("-") and len(tok) > 1:
            sign, tok = -1.0, tok[1:]
        if tok in oracle.BLADES:
            coeffs[oracle.BLADES.index(tok)] += sign
        else:
            mag = float(tok)
            if i + 1 < len(toks) and toks[i + 1] in oracle.BLADES:
                i += 1
                coeffs[oracle.BLADES.index(toks[i])] += sign * mag
            else:
                coeffs[0] += sign * mag
        i += 1
        sign = 1.0
    return coeffs


def numbers(text):
    return [float(t) for t in NUMBER.findall(text)]


def text_close(got, want, mags):
    return len(got) == len(want) and all(
        abs(a - b) <= TEXT_REL * abs(b) + oracle.REL_TOL * m for a, b, m in zip(got, want, mags)
    )


def _fmt_arg(v):
    return repr(float(v))


class Cli(Workload):
    """One `python -m gibbskit ...` child per operation, one at a time."""

    name = "cli"
    in_process = False
    warmup = 2
    trace_ops = 24
    imports = ("gibbskit", "gibbskit.cli")

    def __init__(self, seed, gk, workdir: Path):
        super().__init__(seed, gk)
        self.dir = workdir
        rng = random.Random(f"cli-files:{seed}")
        self.fields = {}
        for path in SAMPLES:
            self.fields[path] = json.loads((ROOT / path).read_text(encoding="utf-8"))
        for k in range(3):
            spec = field_spec(rng, rng.choice((1, 2)), dyadic_coeff, keep=0.75)
            self.fields[self._rel(f"field{k}.json")] = spec
        self.refs = {p: RefField(s) for p, s in self.fields.items()}
        self.bad = {}
        for k in range(2):
            spec = field_spec(rng, 1, dyadic_coeff)
            comp = rng.randrange(3)
            mono = rng.randrange(len(spec["components"][comp]))
            entry = spec["components"][comp][mono]
            pointer = f"/components/{comp}/{mono}"
            if k == 0:
                entry["coef"] = entry.pop("coeff")
                pointer += "/coef"
            else:
                axis = rng.randrange(3)
                entry["powers"][axis] = -1
                pointer += f"/powers/{axis}"
            self.bad[self._rel(f"bad{k}.json")] = (spec, pointer)
        self.env = {name: dyadic_vec(rng) for name in VEC_NAMES}
        self.scripts = {}
        for k in range(4):
            self.scripts[self._rel(f"script{k}.txt")] = rng.randint(2, 5)

    def _rel(self, name):
        return str((self.dir / name).relative_to(ROOT))

    def setup_payload(self):
        return {"specs": [], "paths": list(self.fields)}

    def build(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        for path, spec in self.fields.items():
            if path not in SAMPLES:
                (ROOT / path).write_text(json.dumps(spec), encoding="utf-8")
        for path, (spec, _) in self.bad.items():
            (ROOT / path).write_text(json.dumps(spec), encoding="utf-8")
        for path in self.scripts:
            lines = self._script(path, self.refs[next(iter(self.refs))], [0.0, 0.0, 0.0])
            (ROOT / path).write_text("".join(t + "\n" for t, _ in lines), encoding="utf-8")
        for path in self.fields:
            self.gk.fields.load_field(str(ROOT / path))

    def inputs(self, i):
        rng = self.rng(i)
        cmd = rng.choice(("kinematics", "conventions", "eval", "eval-script"))
        output = rng.choice(("text", "json"))
        path = rng.choice(list(self.fields))
        if path in SAMPLES and rng.random() < 0.5:
            x = SAMPLES[path][1]
        else:
            x = dyadic_point(rng)
        ref = self.refs[path]
        argv = ["--field", path, "--point", *map(_fmt_arg, x)]
        expect = {"cmd": cmd, "output": output, "path": path, "x": x, "code": 0}
        r = rng.random()
        if r < 0.05:
            text, offset = malformed_expression(rng)
            cmd, expect["code"], expect["stderr"] = "eval", 3, f"(offset {offset})"
            argv += [text]
        elif r < 0.1:
            path = rng.choice(list(self.bad))
            argv[1] = path
            expect["code"], expect["stderr"] = 2, f"(at {self.bad[path][1]})"
            if cmd == "eval-script":
                cmd = "eval"
            if cmd == "eval":
                argv += ["v"]
        elif cmd == "eval":
            text, value = self._expression(rng, ref, x)
            argv += [text]
            expect["values"] = [value]
        elif cmd == "eval-script":
            script = rng.choice(list(self.scripts))
            lines = self._script(script, ref, x)
            argv += ["--script", script]
            expect["values"] = [v for _, v in lines]
        if cmd in ("eval", "eval-script"):
            for name, v in self.env.items():
                argv += ["--bind", f"{name}={','.join(map(_fmt_arg, v))}"]
            argv += ["--fd-step", _fmt_arg(FD_STEP)]
        base = "eval" if cmd == "eval-script" else cmd
        argv = [base, *argv, "--output", output]
        return argv, expect

    def _expression(self, rng, ref, x):
        if rng.random() < 0.6:
            return derivative_expression(rng, ref, x, self.env)
        return algebra_expression(rng, self.env, rng.randint(1, 3))

    def _script(self, script, ref, x):
        """The script's (text, oracle value) lines; the text depends on the seed only."""
        rng = random.Random(f"cli-script:{self.seed}:{Path(script).name}")
        return [self._expression(rng, ref, x) for _ in range(self.scripts[script])]

    def argv(self, inp, span_file=None):
        if span_file is None:
            return [sys.executable, "-m", "gibbskit", *inp[0]]
        return [sys.executable, str(HERE / "traced_cli.py"), str(span_file), *inp[0]]

    def run(self, i, traced=None):
        inp = self.inputs(i)
        span_file = None if traced is None else self.dir / f"spans-{i}.json"
        try:
            proc, cpu, wall = run_child(self.argv(inp, span_file), quiet=self.quiet)
        except subprocess.TimeoutExpired:
            return "child timed out", 0, 0
        if span_file is not None:
            traced(json.loads(span_file.read_text(encoding="utf-8")))
            span_file.unlink()
        return self.verify(inp, proc), cpu, wall

    def verify(self, inp, proc):
        argv, expect = inp
        if proc.returncode != expect["code"]:
            return f"{argv}: exit {proc.returncode}, expected {expect['code']}: {proc.stderr[-300:]}"
        if expect["code"]:
            lines = proc.stderr.splitlines()
            if proc.stdout or len(lines) != 1 or not lines[0].endswith(expect["stderr"]):
                return f"{argv}: expected one stderr line ending {expect['stderr']!r}, got {proc.stderr!r}"
            return None
        if proc.stderr:
            return f"{argv}: unexpected stderr {proc.stderr!r}"
        try:
            ok = self._check_output(expect, proc.stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{argv}: unreadable output ({exc})"
        return None if ok else f"{argv}: output differs from oracle"

    def _check_output(self, expect, out):
        ref, x, cmd = self.refs[expect["path"]], expect["x"], expect["cmd"]
        if expect["output"] == "json":
            doc = json.loads(out)
            if cmd == "kinematics":
                return self._check_kinematics_json(expect, doc)
            if cmd == "conventions":
                return self._check_conventions(ref, x, doc=doc)
            docs = [doc] if cmd == "eval" else doc
            return len(docs) == len(expect["values"]) and all(
                self._check_eval_json(d, v) for d, v in zip(docs, expect["values"])
            )
        if cmd == "kinematics":
            return self._check_kinematics_text(ref, x, out)
        if cmd == "conventions":
            return self._check_conventions(ref, x, text=out)
        lines = out.splitlines()
        for kind, vals, mags in expect["values"]:
            take = 3 if kind == "tensor" else 1
            chunk, lines = "\n".join(lines[:take]), lines[take:]
            got = parse_multivector(chunk) if kind == "multivector" else numbers(chunk)
            if not text_close(got, vals, mags):
                return False
        return not lines

    def _check_kinematics_json(self, expect, doc):
        golden = SAMPLES.get(expect["path"])
        if golden is not None and expect["x"] == golden[1]:
            want = json.loads((ROOT / golden[0]).read_text(encoding="utf-8"))
            if doc != want:
                return False
        k = oracle.kinematics_at(self.refs[expect["path"]], expect["x"], [0.0, 0.0, 0.0])
        bv = doc["omega_bivector"]
        got = {
            "G": doc["grad_gibbs"],
            "Gt": doc["grad_alt"],
            "d": doc["d"],
            "omega": doc["omega"],
        }
        return (
            doc["point"] == expect["x"]
            and all(close(sum(v, []), *k[key]) for key, v in got.items())
            and close([0.0, 0.0, 0.0, 0.0, bv["e12"], bv["e13"], bv["e23"], 0.0], *k["bivector"])
            and close(doc["vorticity"], *k["vorticity"])
            and close([doc["divergence"]], *k["divergence"])
        )

    def _check_kinematics_text(self, ref, x, out):
        k = oracle.kinematics_at(ref, x, [0.0, 0.0, 0.0])
        lines = out.splitlines()
        if len(lines) != 20 or not lines[17].startswith("omega bivector: "):
            return False
        bivector = parse_multivector(lines[17][len("omega bivector: "):])
        want, mags = list(x), [0.0] * 3
        for key in ("G", "Gt", "d", "omega", "vorticity", "divergence"):
            want += k[key][0]
            mags += k[key][1]
        got = numbers("\n".join(lines[:17] + lines[18:]))
        return text_close(got, want, mags) and text_close(bivector, *k["bivector"])

    def _check_conventions(self, ref, x, doc=None, text=None):
        g, gm = ref.grad(x)
        gt, gtm = oracle.transpose(g), oracle.transpose(gm)
        om, sm = oracle.antisym(g), oracle.sym_mag(gm)
        omt = oracle.transpose(om)
        diff = ([a - b for a, b in zip(g, gt)], [a + b for a, b in zip(gm, gtm)])
        if doc is not None:
            got = {
                "grad_gibbs": (g, gm),
                "grad_alt": (gt, gtm),
                "difference": diff,
                "omega_postfactor": (om, sm),
                "omega_prefactor": (omt, sm),
            }
            return doc["point"] == x and all(
                close(sum(doc[key], []), *want) for key, want in got.items()
            )
        want, mags = list(x) + g + gt + diff[0], [0.0] * 3 + gm + gtm + diff[1]
        for r in range(3):
            want += om[3 * r : 3 * r + 3] + omt[3 * r : 3 * r + 3]
            mags += sm[3 * r : 3 * r + 3] + sm[3 * r : 3 * r + 3]  # sm is symmetric
        return text_close(numbers(text), want, mags)

    def _check_eval_json(self, doc, expected):
        kind, vals, mags = expected
        body = doc["value"]
        if kind == "scalar":
            got = [body]
        elif kind == "vector":
            got = body
        elif kind == "tensor":
            got = sum(body, [])
        else:
            got = [body[b] for b in oracle.BLADES]
        return doc["kind"] == kind and close(got, vals, mags)


WORKLOADS = {w.name: w for w in (Sweep, Notation, Check, Cli)}
