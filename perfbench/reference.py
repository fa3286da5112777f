"""Fixed reference workload that normalises the benchmark's times.

It runs in its own interpreter next to every measured invocation.  The host
changes speed by tens of percent within seconds, and the program and this
reference slow down together, so their ratio stays put where raw times do
not.  It imports nothing from the repository, so its cost does not depend
on the commit being measured.  It does the kind of work the program does:
ring operations called as closures over tables, set closures and frozenset
keys.
"""

N = 211


def closure_work() -> int:
    add_table = [[(i + j) % N for j in range(N)] for i in range(N)]
    mul_table = [[(i * j) % N for j in range(N)] for i in range(N)]
    add = lambda i, j: add_table[i][j]  # noqa: E731 - called like a ring's closures
    mul = lambda i, j: mul_table[i][j]  # noqa: E731
    seen = {}
    for g in range(N):
        out = {0}
        frontier = [mul(r, g) for r in range(N)]
        while frontier and len(out) <= 40:
            x = frontier.pop()
            if x in out:
                continue
            out.add(x)
            for y in list(out):
                s = add(x, y)
                if s not in out:
                    frontier.append(s)
        seen.setdefault(frozenset(out), g)
    return sum(mul(a, b) in seen or add(b, a) == 0 for a in range(0, N, 3) for b in range(N))


if __name__ == "__main__":
    for _ in range(5):
        closure_work()
