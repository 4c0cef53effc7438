#include <stdio.h>

int c = 7;
int b;

int main(void) {
    if (c) {
        b = b;
    }
    return c;
}
