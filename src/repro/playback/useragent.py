"""HTTP user-agent strings for browser views.

§3: the dataset carries an HTTP user-agent for browser views (app views
carry an SDK and version instead).  The generator mints realistic UA
strings from these per-family templates.
"""

from __future__ import annotations

_UA_TEMPLATES = {
    "chrome": (
        "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
        "(KHTML, like Gecko) Chrome/{version}.0.0.0 Safari/537.36"
    ),
    "firefox": (
        "Mozilla/5.0 (Windows NT 10.0; Win64; x64; rv:{version}.0) "
        "Gecko/20100101 Firefox/{version}.0"
    ),
    "safari": (
        "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_7) "
        "AppleWebKit/605.1.15 (KHTML, like Gecko) Version/{version}.0 "
        "Safari/605.1.15"
    ),
    "edge": (
        "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
        "(KHTML, like Gecko) Chrome/{version}.0.0.0 Safari/537.36 "
        "Edg/{version}.0.0.0"
    ),
    "ie11": (
        "Mozilla/5.0 (Windows NT 10.0; WOW64; Trident/7.0; rv:11.0) "
        "like Gecko"
    ),
}


def build_user_agent(browser: str, major_version: int = 60) -> str:
    """Mint a UA string for a browser family."""
    template = _UA_TEMPLATES.get(browser)
    if template is None:
        raise ValueError(f"unknown browser family {browser!r}")
    return template.format(version=major_version)
