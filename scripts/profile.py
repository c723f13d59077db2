#!/usr/bin/env python3
"""Sampling profiler for hosts without perf or valgrind (x86-64 Linux).

Runs a command, PTRACE_SEIZEs every thread of it, and interrupts each
one HZ times a second to read its instruction pointer. At exit it
resolves the samples that fall in the executable with `addr2line -f -i
-C` against the executable's load base and prints three tables: leaf
function shares, inline-inclusive function shares (a function counts
once per sample if it is anywhere on the inline chain), and per-line
shares. Build with line tables so inlined frames resolve:

    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release
    scripts/profile.py --hz 200 -- target/release/tcm-run --cycles 20000000
"""
import argparse, collections, ctypes, os, re, subprocess, sys, time

SEIZE, INTERRUPT, GETREGS, CONT = 0x4206, 0x4207, 12, 7
WALL, EVENT_STOP, RIP = 0x40000000, 128, 16  # RIP: index in user_regs_struct
libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def run(cmd, hz):
    """Runs `cmd` under the sampler: (exe path, load base, RIPs, exit code)."""
    pid = subprocess.Popen(cmd).pid
    exe, base, traced, rips, code = None, None, set(), [], None
    regs = (ctypes.c_ulonglong * 27)()
    while code is None:
        try:
            tids = [int(t) for t in os.listdir(f"/proc/{pid}/task")]
            if base is None:
                exe = os.readlink(f"/proc/{pid}/exe")
                for line in open(f"/proc/{pid}/maps"):
                    fields = line.split()
                    if fields[-1] == exe and int(fields[2], 16) == 0:
                        base = int(fields[0].split("-")[0], 16)
                        break
        except OSError:
            tids = []
        traced |= {t for t in tids if t not in traced and libc.ptrace(SEIZE, t, None, None) == 0}
        pending = {t for t in traced if libc.ptrace(INTERRUPT, t, None, None) == 0}
        deadline = time.monotonic() + 0.05
        # Every stop and exit of a traced thread reports here; a thread
        # that exits instead of stopping is simply dropped.
        while code is None and time.monotonic() < deadline:
            try:
                tid, status = os.waitpid(-1, WALL | os.WNOHANG)
            except ChildProcessError:  # nothing left to wait for
                code = 0
                break
            if tid == 0:
                if not pending:
                    break
                time.sleep(0.0002)
            elif os.WIFSTOPPED(status) and status >> 16 == EVENT_STOP:
                if tid in pending and libc.ptrace(GETREGS, tid, None, ctypes.byref(regs)) == 0:
                    rips.append(regs[RIP])
                pending.discard(tid)
                libc.ptrace(CONT, tid, None, None)
            elif os.WIFSTOPPED(status):  # a signal for the command: deliver it
                libc.ptrace(CONT, tid, None, ctypes.c_void_p(os.WSTOPSIG(status)))
            else:
                traced.discard(tid)
                pending.discard(tid)
                if tid == pid:
                    code = os.waitstatus_to_exitcode(status)
        time.sleep(1.0 / hz)
    return exe, base, rips, code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--hz", type=float, default=200.0)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command given")
    exe, base, rips, code = run(cmd, args.hz)
    if not rips or base is None:
        sys.exit(f"no samples (exit code {code})")
    counts = collections.Counter(r - base for r in rips)
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", exe]
                         + [hex(a) for a in sorted(counts)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    chains, cur = {}, None
    for line in out:
        if re.fullmatch(r"0x[0-9a-f]+", line):
            cur = chains.setdefault(int(line, 16), [])
        else:
            cur.append(line)
    leaf, incl, lines = collections.Counter(), collections.Counter(), collections.Counter()
    for addr, n in counts.items():
        frames = chains.get(addr, [])
        funcs, locs = frames[0::2], frames[1::2]
        if not funcs or funcs[0] == "??":
            funcs, locs = ["[outside the executable]"], ["??"]
        leaf[funcs[0]] += n
        lines[re.sub(r" \(discriminator \d+\)", "", locs[0])] += n
        for f in set(funcs):
            incl[f] += n
    total = sum(counts.values())
    for title, table in (("leaf", leaf), ("inline-inclusive", incl), ("line", lines)):
        print(f"\n== {title} ({total} samples)")
        for name, n in table.most_common(args.top):
            print(f"{100.0 * n / total:6.1f}%  {name[:140]}")
    sys.exit(code)


if __name__ == "__main__":
    main()
