"""The four sharing classes of Table 1.

===============  ================  =========================  ==============
Sharing class    When linked       New instance per process   Address space
===============  ================  =========================  ==============
static private   static link time  yes                        private
dynamic private  run time          yes                        private
static public    static link time  no                         public
dynamic public   run time          no                         public
===============  ================  =========================  ==============

Classes are specified module-by-module in the arguments to ``lds``; they
are properties of a *link request*, not of the template object file.
"""

from __future__ import annotations

import enum
from typing import List

from repro.errors import LinkError


class SharingClass(enum.Enum):
    STATIC_PRIVATE = "static_private"
    DYNAMIC_PRIVATE = "dynamic_private"
    STATIC_PUBLIC = "static_public"
    DYNAMIC_PUBLIC = "dynamic_public"

    @property
    def is_static(self) -> bool:
        """Linked at static link time (vs run time)."""
        return self in (SharingClass.STATIC_PRIVATE,
                        SharingClass.STATIC_PUBLIC)

    @property
    def is_public(self) -> bool:
        """Persistent, single instance, public portion of address space."""
        return self in (SharingClass.STATIC_PUBLIC,
                        SharingClass.DYNAMIC_PUBLIC)

    @property
    def is_private(self) -> bool:
        return not self.is_public

    @property
    def when_linked(self) -> str:
        """Table 1 column: when the module is linked."""
        return "static link time" if self.is_static else "run time"

    @property
    def new_instance_per_process(self) -> bool:
        """Table 1 column: is a new instance created/destroyed per process."""
        return self.is_private

    @property
    def address_portion(self) -> str:
        """Table 1 column: default portion of the address space."""
        return "public" if self.is_public else "private"

    @classmethod
    def parse(cls, text: str) -> "SharingClass":
        """Parse a class name as it appears on the lds command line."""
        normalized = text.strip().lower().replace("-", "_").replace(" ", "_")
        try:
            return cls(normalized)
        except ValueError:
            raise LinkError(f"unknown sharing class {text!r}") from None

    @classmethod
    def table1(cls) -> List["SharingClass"]:
        """The classes in the paper's Table 1 row order."""
        return [cls.STATIC_PRIVATE, cls.DYNAMIC_PRIVATE,
                cls.STATIC_PUBLIC, cls.DYNAMIC_PUBLIC]
