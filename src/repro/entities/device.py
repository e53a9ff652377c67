"""Playback devices and their SDKs.

§2: publishers build apps against device-specific SDKs ("application
frameworks") and must keep multiple SDK versions alive because users
upgrade slowly; browsers are served by players built on HTML5 or on
plugins such as Flash and Silverlight.  The unique-SDKs complexity
metric of §5 counts distinct (SDK, version) pairs plus browsers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.constants import (
    BROWSER_PLAYERS,
    CONSOLE_DEVICES,
    MOBILE_OSES,
    Platform,
    SET_TOP_DEVICES,
    SMART_TV_DEVICES,
)


@dataclass(frozen=True)
class SDK:
    """A device SDK at a specific version.

    ``str(sdk)`` gives the stable identity used by the unique-SDKs
    complexity metric: two publishers supporting Roku SDK 8.1 count it
    as the same software surface.
    """

    name: str
    version: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SDK name must be non-empty")
        if not self.version:
            raise ValueError("SDK version must be non-empty")

    def __str__(self) -> str:
        return f"{self.name}/{self.version}"


@dataclass(frozen=True)
class Device:
    """A device model on which video is consumed.

    ``family`` is the within-platform grouping tracked by Fig 10 (e.g.
    browser player technology, mobile OS, set-top family).
    """

    model: str
    platform: Platform
    family: str
    os_name: str
    sdk_name: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("device model must be non-empty")
        if not self.family:
            raise ValueError("device family must be non-empty")
        if self.platform.is_app_based and not self.sdk_name:
            raise ValueError(
                f"app-based device {self.model!r} must declare an SDK"
            )

    @property
    def uses_browser_player(self) -> bool:
        return self.platform is Platform.BROWSER


class DeviceRegistry:
    """The known universe of device models, grouped by platform.

    The synthetic dataset draws device models from this registry; the
    analyses reverse the mapping (model -> platform/family), which is how
    the paper's pipeline classifies the Conviva ``device model`` field.
    """

    def __init__(self, devices: Iterable[Device]) -> None:
        self._by_model: Dict[str, Device] = {}
        for device in devices:
            if device.model in self._by_model:
                raise ValueError(f"duplicate device model {device.model!r}")
            self._by_model[device.model] = device

    def __len__(self) -> int:
        return len(self._by_model)

    def __contains__(self, model: str) -> bool:
        return model in self._by_model

    def lookup(self, model: str) -> Device:
        try:
            return self._by_model[model]
        except KeyError:
            raise KeyError(f"unknown device model {model!r}") from None

    def models(self, platform: Optional[Platform] = None) -> List[str]:
        """All device models, optionally restricted to one platform."""
        return [
            model
            for model, device in self._by_model.items()
            if platform is None or device.platform is platform
        ]

    def families(self, platform: Platform) -> List[str]:
        """Distinct families within a platform, in registry order."""
        seen: Dict[str, None] = {}
        for device in self._by_model.values():
            if device.platform is platform:
                seen.setdefault(device.family, None)
        return list(seen)

    def platform_of(self, model: str) -> Platform:
        return self.lookup(model).platform

    def taxonomy(self) -> Dict[Platform, Dict[str, List[str]]]:
        """Platform -> family -> device models (the Fig 5 tree)."""
        tree: Dict[Platform, Dict[str, List[str]]] = {}
        for device in self._by_model.values():
            families = tree.setdefault(device.platform, {})
            families.setdefault(device.family, []).append(device.model)
        return tree


def _browser_devices() -> List[Device]:
    devices = []
    browsers = ("chrome", "firefox", "safari", "edge", "ie11")
    for browser in browsers:
        for player in BROWSER_PLAYERS:
            if player == "silverlight" and browser in ("chrome", "safari"):
                continue  # NPAPI plugins dropped by these browsers
            devices.append(
                Device(
                    model=f"{browser}-{player}",
                    platform=Platform.BROWSER,
                    family=player,
                    os_name="desktop",
                )
            )
    return devices


def _app_devices(
    platform: Platform,
    families: Tuple[str, ...],
    specs: Tuple[Tuple[str, str, str], ...],
) -> List[Device]:
    """App devices from ``(model, family, SDK)`` specs on one platform."""
    return [
        Device(
            model=model,
            platform=platform,
            family=family,
            os_name=family,
            sdk_name=sdk,
        )
        for model, family, sdk in specs
        if family in families
    ]


_MOBILE_SPECS = (
    ("iphone", "ios", "AVFoundation"),
    ("ipad", "ios", "AVFoundation"),
    ("android-phone", "android", "ExoPlayer"),
    ("android-tablet", "android", "ExoPlayer"),
    ("windows-phone", "other_mobile", "MediaElement"),
)
_SET_TOP_SPECS = (
    ("roku-express", "roku", "RokuSDK"),
    ("roku-ultra", "roku", "RokuSDK"),
    ("appletv-4k", "appletv", "tvOS"),
    ("firetv-stick", "firetv", "FireAppBuilder"),
    ("chromecast", "chromecast", "CastSDK"),
    ("tivo-stream", "other_settop", "TivoSDK"),
)
_SMART_TV_SPECS = (
    ("samsung-tizen-tv", "samsung_tv", "TizenSDK"),
    ("lg-webos-tv", "lg_tv", "WebOSSDK"),
    ("sony-android-tv", "android_tv", "AndroidTVSDK"),
    ("vizio-smartcast", "other_tv", "SmartCastSDK"),
)
_CONSOLE_SPECS = (
    ("xbox-one", "xbox", "XDK"),
    ("playstation-4", "playstation", "PSSDK"),
    ("nintendo-switch", "other_console", "NXSDK"),
)


def default_registry() -> DeviceRegistry:
    """The device universe used by the synthetic ecosystem.

    Mirrors the platform taxonomy of Fig 5: browsers (by player
    technology), mobile apps (by OS), streaming set-top boxes, smart
    TVs, and game consoles.
    """
    devices: List[Device] = []
    devices.extend(_browser_devices())
    devices.extend(_app_devices(Platform.MOBILE, MOBILE_OSES, _MOBILE_SPECS))
    devices.extend(
        _app_devices(Platform.SET_TOP, SET_TOP_DEVICES, _SET_TOP_SPECS)
    )
    devices.extend(
        _app_devices(Platform.SMART_TV, SMART_TV_DEVICES, _SMART_TV_SPECS)
    )
    devices.extend(
        _app_devices(Platform.CONSOLE, CONSOLE_DEVICES, _CONSOLE_SPECS)
    )
    return DeviceRegistry(devices)
