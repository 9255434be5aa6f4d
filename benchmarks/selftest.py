"""Self-test of the tracer in spans.py on a synthetic call tree.

Run from the repository root:

    python3 benchmarks/selftest.py

A fake clock advances by known amounts inside nested functions of a
synthetic module, so every span's duration, self time, parent and
operation id has an exact expected value.  The test also checks that hook
time is kept out of the watched span, that calls through a second module
holding the same function are traced, that restore puts every original
back, and that layer metrics over no spans are all zero.  Exits non-zero on
the first failed check.
"""

from __future__ import annotations

import sys
import types

import spans

SOURCE = '''
def leaf(d):
    clock.advance(d)

def middle():
    clock.advance(1.0)
    leaf(2.0)
    clock.advance(0.5)
    leaf(3.0)

def top():
    clock.advance(4.0)
    middle()
    clock.advance(0.25)

def _private():
    clock.advance(100.0)

class Box:
    def method(self):
        clock.advance(7.0)
        leaf(1.0)

    @staticmethod
    def static():
        clock.advance(0.125)

    @classmethod
    def klass(cls):
        clock.advance(0.0625)
'''


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float):
        self.now += seconds


def check(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def build(clock):
    module = types.ModuleType("fake")
    module.clock = clock
    exec(compile(SOURCE, "fake", "exec"), vars(module))
    holder = types.ModuleType("fake_user")
    holder.leaf = module.leaf          # as after `from fake import leaf`
    return module, holder


def main() -> int:
    clock = FakeClock()
    module, holder = build(clock)
    originals = {name: vars(module)[name] for name in ("leaf", "middle", "top", "_private")}
    box_originals = dict(vars(module.Box))

    tracer = spans.Tracer(clock=clock)
    # A hook that costs 0.5 s of fake time on every call of leaf.
    tracer._hooks["fake.leaf"] = (lambda args, kwargs: clock.advance(0.5), None)
    tracer.install(types.ModuleType("package"), {"fake": module, "fake_user": holder})

    tracer.op = 7
    module.top()
    tracer.op = 8
    module.Box().method()
    module.Box.static()
    module.Box.klass()
    module._private()
    holder.leaf(0.75)
    tracer.op = -1

    table = spans.SpanTable(tracer.names, tracer.spans)
    got = [(table.name[i], table.dur[i], table.self_time[i],
            table.name[table.parent[i]] if table.parent[i] >= 0 else None, table.op[i])
           for i in range(len(table.name))]
    expected = [
        # name, duration, self time, parent, op
        ("fake.top", 11.75, 4.25, None, 7),            # 4 + middle + 0.25
        ("fake.middle", 7.5, 1.5, "fake.top", 7),      # 1 + 2 + 0.5 + 3 + two hooks
        (spans.HOOK, 0.5, 0.5, "fake.middle", 7),
        ("fake.leaf", 2.0, 2.0, "fake.middle", 7),
        (spans.HOOK, 0.5, 0.5, "fake.middle", 7),
        ("fake.leaf", 3.0, 3.0, "fake.middle", 7),
        ("fake.Box.method", 8.5, 7.0, None, 8),
        (spans.HOOK, 0.5, 0.5, "fake.Box.method", 8),
        ("fake.leaf", 1.0, 1.0, "fake.Box.method", 8),
        ("fake.Box.static", 0.125, 0.125, None, 8),
        ("fake.Box.klass", 0.0625, 0.0625, None, 8),
        (spans.HOOK, 0.5, 0.5, None, 8),
        ("fake.leaf", 0.75, 0.75, None, 8),
    ]
    check(len(got) == len(expected), f"{len(got)} spans, expected {len(expected)}: {got}")
    for g, e in zip(got, expected):
        check(g == e, f"span {g} != expected {e}")

    in_top = table.under("fake.top")
    check([table.name[i] for i, f in enumerate(in_top) if f]
          == ["fake.top", "fake.middle", spans.HOOK, "fake.leaf", spans.HOOK, "fake.leaf"],
          "under('fake.top') selects the wrong spans")
    check(table.total(table.select("fake.leaf", in_top)) == 5.0, "leaf time under top")
    check(table.select("fake.leaf", parent="fake.Box.method") == [8], "select by parent")

    check(tracer.restore(), "restore reported a mismatch")
    for name, original in originals.items():
        check(vars(module)[name] is original, f"{name} not restored")
    check(holder.leaf is originals["leaf"], "holder's reference not restored")
    for name, original in box_originals.items():
        check(vars(module.Box)[name] is original, f"Box.{name} not restored")

    empty = spans.Tracer(clock=clock)
    metrics = spans.layer_metrics(empty, spans.SpanTable(empty.names, empty.spans), {})
    check(all(v == 0 for v in metrics.values()), f"metrics over no spans: {metrics}")
    check(spans.op_counters(empty, spans.SpanTable([spans.HOOK], []), {0: {"steps": 0, "passes": 0}})
          == {0: dict.fromkeys(spans.EXACT_COUNTERS, 0.0)}, "counters over no spans")

    print(f"selftest: {len(expected)} spans checked, restore checked, empty metrics checked")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as err:
        print(f"selftest FAILED: {err}", file=sys.stderr)
        sys.exit(1)
