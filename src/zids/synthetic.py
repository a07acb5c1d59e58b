"""Seeded generator of a small KDD99-format corpus.

Produces connection records in the exact wire format (42 comma-separated
fields, dot-terminated label) with the training file's 23 labels and its
heavy imbalance, scaled down to desk size. Flooding and scanning traffic
carry crisp signatures. The unauthorized-access labels are deliberately
hard: they reuse benign traffic and add account-activity fingerprints
drawn from the same value ranges that benign rows occasionally produce,
so only the rates differ. An unweighted classifier rationally surrenders
those rows to the majority class; class weights flip the trade. Intended
for demos and for exercising the pipeline where the real dataset is not
on disk.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from .dataset import FEATURE_NAMES

# Counts mirror the full file's ordering: DoS >> Normal >> Probe >> UA.
DEFAULT_PROFILE: dict[str, int] = {
    "smurf": 16000,
    "neptune": 6000,
    "normal": 5200,
    "back": 120,
    "satan": 80,
    "ipsweep": 62,
    "portsweep": 50,
    "teardrop": 48,
    "warezclient": 41,
    "pod": 32,
    "nmap": 28,
    "guess_passwd": 21,
    "buffer_overflow": 12,
    "land": 10,
    "warezmaster": 9,
    "imap": 8,
    "rootkit": 7,
    "loadmodule": 6,
    "ftp_write": 5,
    "multihop": 4,
    "phf": 4,
    "perl": 3,
    "spy": 2,
}

_IDX = {name: i for i, name in enumerate(FEATURE_NAMES)}

# How often a benign row carries some suspicious fingerprint, and how
# often an unauthorized-access row carries its own. The benign pool is
# large enough that every fingerprint cell stays majority-benign, which
# is what starves the minority class under unweighted training.
_NORMAL_FINGERPRINT_P = 0.06
_UA_FINGERPRINT_P = 0.75


def _blank() -> list[str]:
    row = ["0"] * len(FEATURE_NAMES)
    for name in FEATURE_NAMES:
        if name.endswith("_rate"):
            row[_IDX[name]] = "0.00"
    return row


def _set(row: list[str], **fields) -> None:
    for name, value in fields.items():
        if isinstance(value, float):
            row[_IDX[name]] = f"{value:.2f}"
        elif isinstance(value, str):
            row[_IDX[name]] = value
        else:
            row[_IDX[name]] = str(int(value))


def _rate(rng, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 2)


# --- suspicious-activity fingerprints ---------------------------------------
# One vocabulary of fingerprints, shared verbatim between occasional benign
# noise and the unauthorized-access labels; value ranges are identical on
# both sides by construction.


def _fp_failed_login(rng, row):
    _set(row, service=str(rng.choice(["telnet", "ftp", "imap4"])),
         num_failed_logins=int(rng.integers(1, 6)), logged_in=0,
         dst_bytes=int(rng.integers(0, 300)))


def _fp_root_activity(rng, row):
    _set(row, service=str(rng.choice(["telnet", "http"])), root_shell=1,
         hot=int(rng.integers(1, 6)), duration=int(rng.integers(60, 600)),
         num_file_creations=int(rng.integers(0, 4)))


def _fp_guest_ftp(rng, row):
    _set(row, service=str(rng.choice(["ftp", "ftp_data"])), is_guest_login=1,
         hot=int(rng.integers(0, 5)), src_bytes=int(rng.integers(500, 5000)))


def _fp_file_tamper(rng, row):
    _set(row, num_file_creations=int(rng.integers(1, 6)),
         num_access_files=int(rng.integers(1, 3)))


def _fp_hot_session(rng, row):
    _set(row, hot=int(rng.integers(2, 9)), duration=int(rng.integers(100, 600)),
         num_root=int(rng.integers(0, 4)))


def _fp_compromise(rng, row):
    _set(row, num_compromised=int(rng.integers(1, 6)),
         num_root=int(rng.integers(1, 7)), num_shells=int(rng.integers(0, 3)))


def _fp_mail_probe(rng, row):
    _set(row, service="imap4", flag=str(rng.choice(["SF", "RSTO"])),
         dst_bytes=int(rng.integers(0, 300)))


_FINGERPRINTS = (
    _fp_failed_login,
    _fp_root_activity,
    _fp_guest_ftp,
    _fp_file_tamper,
    _fp_hot_session,
    _fp_compromise,
    _fp_mail_probe,
)

# label -> fingerprint it exhibits when it exhibits one
_UA_FINGERPRINT = {
    "guess_passwd": _fp_failed_login,
    "buffer_overflow": _fp_root_activity,
    "loadmodule": _fp_root_activity,
    "perl": _fp_compromise,
    "rootkit": _fp_compromise,
    "warezclient": _fp_guest_ftp,
    "warezmaster": _fp_guest_ftp,
    "ftp_write": _fp_file_tamper,
    "imap": _fp_mail_probe,
    "phf": _fp_file_tamper,
    "multihop": _fp_hot_session,
    "spy": _fp_hot_session,
}


def _normal_row(rng, fingerprint_p: float = _NORMAL_FINGERPRINT_P) -> list[str]:
    row = _blank()
    service = rng.choice(
        ["http", "smtp", "ftp_data", "domain_u", "other", "ftp", "telnet",
         "pop_3", "finger", "imap4"],
        p=[0.44, 0.15, 0.10, 0.08, 0.07, 0.05, 0.04, 0.03, 0.03, 0.01],
    )
    protocol = "udp" if service == "domain_u" else "tcp"
    count = int(rng.integers(1, 30))
    host_count = int(rng.integers(5, 256))
    _set(
        row,
        duration=int(rng.integers(0, 6)) if rng.random() < 0.8 else int(rng.integers(6, 600)),
        protocol_type=protocol,
        service=str(service),
        flag="SF" if rng.random() < 0.96 else str(rng.choice(["S1", "RSTO"])),
        src_bytes=int(rng.integers(40, 2000)),
        dst_bytes=int(rng.integers(100, 20000)),
        logged_in=1 if rng.random() < 0.85 else 0,
        count=count,
        srv_count=max(1, int(count * rng.uniform(0.5, 1.0))),
        same_srv_rate=_rate(rng, 0.8, 1.0),
        diff_srv_rate=_rate(rng, 0.0, 0.1),
        srv_diff_host_rate=_rate(rng, 0.0, 0.2),
        dst_host_count=host_count,
        dst_host_srv_count=max(1, int(host_count * rng.uniform(0.3, 1.0))),
        dst_host_same_srv_rate=_rate(rng, 0.7, 1.0),
        dst_host_diff_srv_rate=_rate(rng, 0.0, 0.1),
        dst_host_same_src_port_rate=_rate(rng, 0.0, 0.3),
        dst_host_srv_diff_host_rate=_rate(rng, 0.0, 0.2),
    )
    if rng.random() < 0.05:
        _set(row, rerror_rate=_rate(rng, 0.0, 0.05))
    if rng.random() < fingerprint_p:
        fp = _FINGERPRINTS[int(rng.integers(0, len(_FINGERPRINTS)))]
        fp(rng, row)
    return row


def _ua_row(rng, label: str) -> list[str]:
    row = _normal_row(rng, fingerprint_p=0.0)
    if rng.random() < _UA_FINGERPRINT_P:
        _UA_FINGERPRINT[label](rng, row)
    return row


# --- flooding and scanning recipes -------------------------------------------


def _smurf(rng) -> list[str]:
    row = _blank()
    count = int(rng.integers(350, 512))
    _set(
        row,
        protocol_type="icmp",
        service="ecr_i",
        flag="SF",
        src_bytes=int(rng.choice([520, 1032])),
        count=count,
        srv_count=count,
        same_srv_rate=1.00,
        dst_host_count=255,
        dst_host_srv_count=255,
        dst_host_same_srv_rate=1.00,
        dst_host_same_src_port_rate=1.00,
    )
    return row


def _neptune(rng) -> list[str]:
    row = _blank()
    _set(
        row,
        protocol_type="tcp",
        service=str(rng.choice(["private", "other", "finger", "telnet"])),
        flag="S0" if rng.random() < 0.95 else "REJ",
        count=int(rng.integers(100, 300)),
        srv_count=int(rng.integers(1, 20)),
        serror_rate=_rate(rng, 0.95, 1.0),
        srv_serror_rate=_rate(rng, 0.95, 1.0),
        same_srv_rate=_rate(rng, 0.03, 0.15),
        diff_srv_rate=_rate(rng, 0.03, 0.1),
        dst_host_count=255,
        dst_host_srv_count=int(rng.integers(1, 30)),
        dst_host_serror_rate=_rate(rng, 0.95, 1.0),
        dst_host_srv_serror_rate=_rate(rng, 0.95, 1.0),
    )
    return row


def _back(rng) -> list[str]:
    row = _normal_row(rng, fingerprint_p=0.0)
    _set(
        row,
        protocol_type="tcp",
        service="http",
        flag="SF",
        src_bytes=int(rng.integers(54000, 54541)),
        dst_bytes=int(rng.integers(8000, 8400)),
        hot=int(rng.integers(1, 3)),
        logged_in=1,
    )
    return row


def _teardrop(rng) -> list[str]:
    row = _blank()
    _set(
        row,
        protocol_type="udp",
        service="private",
        flag="SF",
        wrong_fragment=3,
        src_bytes=28,
        count=int(rng.integers(50, 200)),
        srv_count=int(rng.integers(50, 200)),
        same_srv_rate=1.00,
        dst_host_count=int(rng.integers(1, 100)),
    )
    return row


def _pod(rng) -> list[str]:
    row = _blank()
    _set(
        row,
        protocol_type="icmp",
        service="ecr_i",
        flag="SF",
        wrong_fragment=1,
        src_bytes=1480,
        count=int(rng.integers(1, 20)),
        srv_count=int(rng.integers(1, 20)),
        same_srv_rate=1.00,
        dst_host_count=int(rng.integers(1, 120)),
    )
    return row


def _land(rng) -> list[str]:
    row = _blank()
    _set(
        row,
        protocol_type="tcp",
        service=str(rng.choice(["finger", "telnet"])),
        flag="S0",
        land=1,
        serror_rate=1.00,
        srv_serror_rate=1.00,
        count=int(rng.integers(1, 5)),
    )
    return row


def _ipsweep(rng) -> list[str]:
    row = _blank()
    _set(
        row,
        protocol_type="icmp",
        service="eco_i",
        flag="SF",
        src_bytes=int(rng.integers(8, 21)),
        count=int(rng.integers(1, 4)),
        srv_count=int(rng.integers(1, 4)),
        same_srv_rate=_rate(rng, 0.25, 0.5),
        srv_diff_host_rate=_rate(rng, 0.5, 1.0),
        dst_host_count=int(rng.integers(150, 256)),
        dst_host_srv_count=int(rng.integers(1, 20)),
        dst_host_same_src_port_rate=_rate(rng, 0.5, 1.0),
        dst_host_srv_diff_host_rate=_rate(rng, 0.5, 1.0),
    )
    return row


def _portsweep(rng) -> list[str]:
    row = _blank()
    _set(
        row,
        protocol_type="tcp",
        service="private",
        flag="REJ" if rng.random() < 0.8 else "RSTR",
        src_bytes=int(rng.integers(0, 9)),
        count=int(rng.integers(2, 20)),
        rerror_rate=_rate(rng, 0.9, 1.0),
        srv_rerror_rate=_rate(rng, 0.9, 1.0),
        diff_srv_rate=_rate(rng, 0.7, 1.0),
        same_srv_rate=_rate(rng, 0.0, 0.1),
        dst_host_count=255,
        dst_host_rerror_rate=_rate(rng, 0.9, 1.0),
        dst_host_diff_srv_rate=_rate(rng, 0.7, 1.0),
    )
    return row


def _satan(rng) -> list[str]:
    row = _blank()
    _set(
        row,
        protocol_type=str(rng.choice(["tcp", "udp"])),
        service=str(rng.choice(["private", "other", "finger", "domain_u"])),
        flag=str(rng.choice(["SF", "REJ", "RSTR"])),
        src_bytes=int(rng.integers(0, 40)),
        count=int(rng.integers(2, 30)),
        rerror_rate=_rate(rng, 0.5, 1.0),
        diff_srv_rate=_rate(rng, 0.5, 1.0),
        same_srv_rate=_rate(rng, 0.0, 0.2),
        dst_host_count=int(rng.integers(100, 256)),
        dst_host_diff_srv_rate=_rate(rng, 0.5, 1.0),
        dst_host_rerror_rate=_rate(rng, 0.3, 1.0),
    )
    return row


def _nmap(rng) -> list[str]:
    row = _blank()
    icmp = rng.random() < 0.5
    _set(
        row,
        protocol_type="icmp" if icmp else "tcp",
        service="urp_i" if icmp else "private",
        flag="SF" if icmp or rng.random() < 0.4 else "REJ",
        src_bytes=int(rng.integers(0, 40)),
        count=int(rng.integers(1, 8)),
        srv_diff_host_rate=_rate(rng, 0.3, 1.0),
        dst_host_count=int(rng.integers(100, 256)),
        dst_host_same_src_port_rate=_rate(rng, 0.5, 1.0),
    )
    return row


_BUILDERS = {
    "normal": _normal_row,
    "smurf": _smurf,
    "neptune": _neptune,
    "back": _back,
    "teardrop": _teardrop,
    "pod": _pod,
    "land": _land,
    "ipsweep": _ipsweep,
    "portsweep": _portsweep,
    "satan": _satan,
    "nmap": _nmap,
}


def generate_lines(
    profile: Optional[Mapping[str, int]] = None, seed: int = 0
) -> list[str]:
    """Deterministic KDD99 wire lines for the profile, in shuffled order,
    each with its dot-terminated label and no line terminator."""
    if profile is None:
        profile = DEFAULT_PROFILE
    rng = np.random.default_rng(seed)
    lines: list[str] = []
    for label in sorted(profile):
        builder = _BUILDERS.get(label)
        for _ in range(profile[label]):
            if builder is not None:
                row = builder(rng)
            else:
                row = _ua_row(rng, label)
            lines.append(",".join(row) + f",{label}.")
    order = rng.permutation(len(lines))
    return [lines[i] for i in order]


def write_corpus(
    path, profile: Optional[Mapping[str, int]] = None, seed: int = 0
) -> int:
    """Write a corpus file in KDD99 wire format; returns the row count."""
    lines = generate_lines(profile, seed)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)
